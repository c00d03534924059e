"""Correctness checks on the program's outputs.

Every check compares against the independent oracle (``oracle.py``) or a
property the method must have, never against stored output.  A check returns
an ``Outcome``: ``ok``, ``held`` (one of the known program faults below,
counted as a failed operation) or ``bad`` (anything else, which makes the run
incorrect).  The held faults:

(a) the 2^N cap in ``dicke_to_full`` rejects the ladder path for N > 14;
(b) the absolute ``moments._IMAG_TOL`` raises ``RuntimeError`` at N=1000;
(c) ``sample`` accepts a non-symmetric product state that ``compute`` rejects.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle

PRODUCT_S_MAX = 1e-10
PHASE_S_TOL = 1e-12
RESIDUAL_TOL = 1e-12
SAMPLE_SIGMAS = 6.0

IDENTITY_IDS = frozenset(
    "J" + "J".join(word) for word in itertools.product("xyz", repeat=3)
)
RELATION_IDS = frozenset({
    "atom_square", "atom_cube", "atom_xy_product",
    "atom_yz_product", "atom_zx_product", "atom_anticommute",
})


@dataclass
class Outcome:
    status: str  # "ok", "held" or "bad"
    notes: list = field(default_factory=list)


def ok():
    return Outcome("ok")


def bad(*notes):
    return Outcome("bad", list(notes))


def held(fault):
    return Outcome("held", [fault])


@dataclass
class CliResult:
    """What one in-process ``trispin.cli.main`` call produced."""

    code: object  # exit code, or None when an exception escaped
    stdout: str
    error: BaseException | None = None


def _compare(label, got, want, n_atoms, order):
    if got is None or not math.isfinite(got) or abs(got - want) > oracle.tolerance(n_atoms, order):
        return [f"{label}: program {got!r} vs oracle {want!r}"]
    return []


def _compare_report(report, expected):
    n = expected.n_atoms
    mean = report["mean_spin"]
    problems = []
    for label, got, want, order in (
        ("jx", mean["jx"], expected.jx, 1),
        ("jy", mean["jy"], expected.jy, 1),
        ("jz", mean["jz"], expected.jz, 1),
        ("var_xp", report["var_xp"], expected.var_xp, 2),
        ("var_yp", report["var_yp"], expected.var_yp, 2),
        ("m3_xp_direct", report["m3_xp_direct"], expected.m3_xp, 3),
        ("m3_yp_direct", report["m3_yp_direct"], expected.m3_yp, 3),
        ("m3_xp_sum", report["m3_xp_sum"], expected.m3_xp, 3),
        ("m3_yp_sum", report["m3_yp_sum"], expected.m3_yp, 3),
        ("s_parameter", report["s_parameter"], expected.s, 3),
    ):
        problems += _compare(label, got, want, n, order)
    return problems


def check_compute(doc, result, expected, product=False):
    """One ``compute`` document against the oracle ``Moments``.

    Held faults (a) and (b) are recognised by their signatures on N > 14.
    """
    n = doc["n_atoms"]
    if result.error is not None:
        message = str(result.error)
        if n > 14 and isinstance(result.error, RuntimeError) and "imaginary part" in message:
            return held("b")
        return bad(f"compute N={n}: {type(result.error).__name__} escaped: {message}")
    try:
        document = json.loads(result.stdout)
    except ValueError:
        return bad(f"compute N={n}: output is not JSON (exit {result.code})")
    if result.code != 0:
        error = document.get("error", {})
        if expected.frame_undefined and result.code == 3:
            return ok()
        if n > 14 and result.code == 2 and "capped" in error.get("message", ""):
            return held("a")
        return bad(f"compute N={n}: exit {result.code}: {error}")
    if expected.frame_undefined:
        return bad(f"compute N={n}: frame undefined by the oracle but S reported")
    report = document["report"]
    problems = _compare_report(report, expected)
    if not document["route_check"]["passed"]:
        problems.append("route check failed")
    if product and not report["s_parameter"] <= PRODUCT_S_MAX:
        problems.append(f"product state S={report['s_parameter']!r} > {PRODUCT_S_MAX}")
    return Outcome("bad", [f"compute N={n}: {p}" for p in problems]) if problems else ok()


def check_phase_pair(s_base, s_phased):
    """S must not change under a global phase of the state."""
    if abs(s_base - s_phased) > PHASE_S_TOL * (1.0 + abs(s_base)):
        return [f"global phase changed S: {s_base!r} vs {s_phased!r}"]
    return []


def scan_alphas(grid):
    start, stop, points = grid.get("start", 0.0), grid["stop"], grid["points"]
    return [
        start if points == 1 else start + (stop - start) * i / (points - 1)
        for i in range(points)
    ]


def scan_row_state(grid, alpha):
    coeffs = np.zeros(grid["n_atoms"] + 1, dtype=complex)
    coeffs[grid["index_a"]] = math.cos(alpha)
    coeffs[grid["index_b"]] = math.sin(alpha)
    return coeffs / np.linalg.norm(coeffs)


def _angle_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def check_scan(grid, result):
    """Every row of a ``scan`` CSV against the oracle."""
    n = grid["n_atoms"]
    if result.error is not None:
        if n > 14 and "capped" in str(result.error):
            return held("a")
        return bad(f"scan N={n}: {type(result.error).__name__} escaped: {result.error}")
    if result.code != 0:
        return bad(f"scan N={n}: exit {result.code}")
    lines = [line for line in result.stdout.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    alphas = scan_alphas(grid)
    if len(rows) != len(alphas):
        return bad(f"scan N={n}: {len(rows)} rows for {len(alphas)} grid points")
    problems = []
    for row, alpha in zip(rows, alphas):
        where = f"scan N={n} row {row['grid_index']}"
        if float(row["alpha"]) != alpha:
            problems.append(f"{where}: alpha {row['alpha']} vs {alpha!r}")
            continue
        expected = oracle.ladder_moments(scan_row_state(grid, alpha))
        for key in ("jx", "jy", "jz"):
            problems += _compare(f"{where} {key}", float(row[key]), getattr(expected, key), n, 1)
        if row["frame_undefined"] != str(int(expected.frame_undefined)):
            problems.append(
                f"{where}: frame_undefined={row['frame_undefined']} but oracle "
                f"|<J>|={expected.magnitude:.3e}"
            )
            continue
        if expected.frame_undefined:
            continue
        for key in ("theta", "phi"):
            if _angle_gap(float(row[key]), getattr(expected, key)) > 1e-9:
                problems.append(f"{where}: {key} {row[key]} vs {getattr(expected, key)!r}")
        report = {
            "mean_spin": {k: float(row[k]) for k in ("jx", "jy", "jz")},
            "s_parameter": float(row["s"]),
            **{k: float(row[k]) for k in (
                "var_xp", "var_yp", "m3_xp_direct", "m3_yp_direct",
                "m3_xp_sum", "m3_yp_sum",
            )},
        }
        problems += [f"{where}: {p}" for p in _compare_report(report, expected)]
    return Outcome("bad", problems) if problems else ok()


def check_verification(report, trials):
    """A default ``run_verification`` report: properties the suite must have."""
    problems = []
    if report.get("passed") is not True:
        problems.append("verification did not pass")
    ids = {entry["identity_id"] for entry in report["identities"]}
    if ids != IDENTITY_IDS | RELATION_IDS or len(report["identities"]) != len(ids):
        problems.append(f"identity set differs: missing {sorted(IDENTITY_IDS | RELATION_IDS - ids)}")
    for entry in report["identities"]:
        if not (entry["passed"] and entry["max_abs_residual"] <= RESIDUAL_TOL):
            problems.append(f"identity {entry['identity_id']} residual {entry['max_abs_residual']!r}")
    # verify_sum_route prepends one GHZ-like state to the requested trials
    wanted = {"cancellation_sweep": trials, "product_vanishing_n3": trials,
              "product_vanishing_n8": trials}
    wanted.update({f"sum_route_n{n}": trials + 1 for n in (3, 4, 5, 6)})
    sweeps = {sweep["check_id"]: sweep for sweep in report["sweeps"]}
    if set(sweeps) != set(wanted) or len(report["sweeps"]) != len(wanted):
        problems.append(f"sweep set differs: {sorted(sweeps)}")
    for check_id, count in wanted.items():
        sweep = sweeps.get(check_id)
        if sweep is None:
            continue
        if sweep["n_trials"] != count:
            problems.append(f"{check_id}: {sweep['n_trials']} trials, requested {count}")
        if not (sweep["passed"] and sweep["worst"] <= sweep["tolerance"]):
            problems.append(f"{check_id}: worst {sweep['worst']!r} > {sweep['tolerance']!r}")
    return problems


def check_corrupted_suite(results, corrupt_id):
    """The corrupted identity, and only it, must be flagged."""
    flagged = {r.identity_id for r in results if not r.passed}
    ids = {r.identity_id for r in results}
    problems = []
    if ids != IDENTITY_IDS | RELATION_IDS:
        problems.append("corrupted suite returned a different identity set")
    if flagged != {corrupt_id}:
        problems.append(f"corrupting {corrupt_id} flagged {sorted(flagged)}")
    return problems


def check_record(record, n_atoms, shots):
    problems = []
    counts = np.asarray(record.counts)
    if record.m_shots != shots or int(counts.sum()) != shots or np.any(counts < 0):
        problems.append(
            f"{record.operator_tag}: counts sum to {int(counts.sum())}, shots {shots}"
        )
    levels = np.asarray(record.eigenvalues) + n_atoms / 2.0
    if np.any(np.abs(levels - np.round(levels)) > 1e-9) or np.any(levels < -1e-9) \
            or np.any(levels > n_atoms + 1e-9):
        problems.append(f"{record.operator_tag}: outcomes off the spectrum -N/2..N/2")
    return problems


def check_estimate(n_atoms, expected, estimate, error, shots):
    """One S estimate from samples against the oracle S.

    ``expected`` is the oracle ``Moments``, or ``None`` for a non-symmetric
    state, which must be rejected (held fault (c) while it is not).
    """
    if error is not None:
        if expected is None and type(error).__name__ in ("NotSymmetricError", "InvalidStateError"):
            return ok()
        return bad(f"sample N={n_atoms}: {type(error).__name__}: {error}")
    if expected is None:
        return held("c")
    problems = []
    for record in (estimate.record_xp, estimate.record_yp):
        problems += check_record(record, n_atoms, shots)
    se = max(estimate.s_se, 0.5 * max(estimate.estimates_xp.se_m3, estimate.estimates_yp.se_m3))
    if not abs(estimate.s_hat - expected.s) <= SAMPLE_SIGMAS * se:
        problems.append(
            f"s_hat {estimate.s_hat!r} vs oracle {expected.s!r} (se {estimate.s_se!r})"
        )
    return Outcome("bad", [f"sample N={n_atoms}: {p}" for p in problems]) if problems else ok()


def check_replay(first, second):
    """A replay with the same seed must reproduce the estimate bit for bit."""
    same = first.s_hat == second.s_hat and first.s_se == second.s_se and all(
        np.array_equal(a.counts, b.counts) and np.array_equal(a.eigenvalues, b.eigenvalues)
        for a, b in ((first.record_xp, second.record_xp), (first.record_yp, second.record_yp))
    )
    return [] if same else ["replay with the same seed differs"]
