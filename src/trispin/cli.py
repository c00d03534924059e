"""Command-line entry point: compute, verify, scan, sample.

Every artifact embeds the tool version, the seed, the route tolerances, a
SHA-256 checksum of the raw input, and a timestamp; reruns with identical
inputs are byte-identical apart from the timestamp field.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 frame
undefined.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import operator
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import FrameUndefinedError, InvalidStateError, TrispinError
from .moments import (
    ROUTE_ABS_FLOOR,
    ROUTE_REL_TOL,
    UndefinedFrame,
    entanglement_s,
    moment_reports,
)
from .sampler import estimate_s_from_samples
from .states import _integer_field, state_from_dict, symmetric_state
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_FRAME_UNDEFINED = 3

# Most ladder levels one command may span: N + 1 for a `compute` or `sample`
# document or `verify --n`, points x (N + 1) for a scan grid.  At the limit a
# scan took 401 MB peak RSS for a single N=999999 point, 36 MB for 1000 points
# at N=999 and 150 MB for 250000 points at N=3, most of it the CSV text (one
# fresh process each, one BLAS thread on a 2-vCPU Xeon), near the memory of
# `sample` at its atom cap; `verify --n 999999 --trials 1` took 451 MB.  The
# memory grows linearly with N, so past the limit a command would risk an
# out-of-memory kill rather than an error.
MAX_LADDER_LEVELS = 10**6


def _check_levels(levels, what):
    if levels > MAX_LADDER_LEVELS:
        raise InvalidStateError(
            f"{what} is past the limit of {MAX_LADDER_LEVELS} ladder levels"
        )


def _timestamp():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _envelope(args, input_bytes):
    return {
        "tool": {"name": "trispin", "version": __version__},
        "timestamp": _timestamp(),
        "seed": args.seed,
        "tolerances": {"rel": ROUTE_REL_TOL, "abs": ROUTE_ABS_FLOOR},
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
    }


def _json_text(document):
    return json.dumps(document, indent=2) + "\n"


def _error_text(args, raw, code, exc):
    document = _envelope(args, raw)
    document["error"] = {"code": code, "message": str(exc)}
    return _json_text(document)


# Readers return the raw bytes a subcommand works on; the envelope hashes
# them, and an error raised while decoding them still reports their hash.

def _read_input(args):
    if args.input == "-":
        return sys.stdin.read().encode("utf-8")
    with open(args.input, "rb") as handle:
        return handle.read()


def _read_grid(args):
    if not args.grid:
        raise InvalidStateError("scan needs --grid")
    return args.grid.encode("utf-8")


def _read_nothing(args):
    return b""


def _decode_state(args, raw):
    data = json.loads(raw.decode("utf-8"))
    state = state_from_dict(data, auto_normalize=args.normalize)
    _check_levels(state.n_atoms + 1, f"a state of {state.n_atoms} atoms")
    return state


# Commands take the parsed arguments and the bytes their reader returned, and
# give back (artifact text, exit code); bad input raises, and ``main`` turns
# the exception into an error document.

def _cmd_compute(args, raw):
    report = entanglement_s(_decode_state(args, raw))
    document = _envelope(args, raw)
    document["report"] = report.to_dict()
    max_rel_dev = report.max_rel_dev()
    document["route_check"] = {
        "max_rel_dev": max_rel_dev,
        "tolerance_rel": ROUTE_REL_TOL,
        "passed": max_rel_dev <= ROUTE_REL_TOL,
    }
    return _json_text(document), EXIT_OK


def _cmd_verify(args, raw):
    if args.n is not None:
        _check_levels(args.n + 1, f"--n {args.n}")
    report = run_verification(
        trials=args.trials,
        seed=args.seed,
        n_atoms=args.n,
        corrupt_identity=args.corrupt_identity,
    )
    document = _envelope(args, raw)
    document["verification"] = report
    code = EXIT_OK if report["passed"] else EXIT_VERIFICATION_FAILED
    return _json_text(document), code


def _parse_grid(text):
    try:
        grid = json.loads(text)
    except ValueError as exc:
        raise InvalidStateError(f"grid is not valid JSON: {exc}") from exc
    if not isinstance(grid, dict):
        raise InvalidStateError("grid must be a JSON object")
    if grid.get("family") != "pair_mix":
        raise InvalidStateError(
            f"unknown grid family {grid.get('family')!r} (supported: 'pair_mix')"
        )
    try:
        n_atoms = _integer_field(grid["n_atoms"], "n_atoms")
        index_a = _integer_field(grid.get("index_a", 0), "index_a")
        index_b = _integer_field(grid.get("index_b", 1), "index_b")
        start, stop = grid.get("start", 0.0), grid["stop"]
        if isinstance(start, bool) or isinstance(stop, bool):
            raise TypeError("start and stop must be numbers, not true or false")
        start, stop = float(start), float(stop)
        points = _integer_field(grid["points"], "points")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidStateError(f"missing or malformed grid field: {exc}") from exc
    if points < 1:
        raise InvalidStateError(f"grid needs at least 1 point, got {points}")
    _check_levels(points * (n_atoms + 1),
                  f"grid of {points} points x {n_atoms + 1} levels")
    if not (0 <= index_a <= n_atoms and 0 <= index_b <= n_atoms):
        raise InvalidStateError("grid level indices outside 0..N")
    if index_a == index_b:
        raise InvalidStateError("grid level indices must differ")
    if not math.isfinite((stop - start) * (points - 1)):
        raise InvalidStateError("grid angles must be finite from start to stop")
    return n_atoms, index_a, index_b, start, stop, points


_SCAN_COLUMNS = (
    "grid_index", "alpha", "jx", "jy", "jz", "theta", "phi",
    "var_xp", "var_yp", "m3_xp_direct", "m3_yp_direct",
    "m3_xp_sum", "m3_yp_sum", "s", "frame_undefined",
)


# the report values of the columns from theta to s, in column order
_REPORT_VALUES = operator.attrgetter(
    "angles.theta", "angles.phi", "var_xp", "var_yp",
    "m3_xp_direct", "m3_yp_direct", "m3_xp_sum", "m3_yp_sum", "s_parameter",
)


def _scan_row(index, alpha, report):
    mean = report.mean_spin
    head = [index, repr(alpha), repr(mean.jx), repr(mean.jy), repr(mean.jz)]
    if isinstance(report, UndefinedFrame):
        return head + [""] * 9 + [1]
    return head + [repr(value) for value in _REPORT_VALUES(report)] + [0]


def _pair_mix_state(n_atoms, index_a, index_b, alpha):
    coeffs = [0.0] * (n_atoms + 1)
    coeffs[index_a] = math.cos(alpha)
    coeffs[index_b] = math.sin(alpha)
    return symmetric_state(n_atoms, coeffs, normalize=True)


def _cmd_scan(args, raw):
    n_atoms, index_a, index_b, start, stop, points = _parse_grid(raw.decode("utf-8"))
    alphas = [
        start if points == 1 else start + (stop - start) * index / (points - 1)
        for index in range(points)
    ]
    buffer = io.StringIO()
    buffer.write(f"# trispin scan v{__version__}\n")
    buffer.write(f"# seed: {args.seed}\n")
    buffer.write(f"# tolerances: rel={ROUTE_REL_TOL!r} abs={ROUTE_ABS_FLOOR!r}\n")
    buffer.write(f"# input_sha256: {hashlib.sha256(raw).hexdigest()}\n")
    buffer.write(f"# timestamp: {_timestamp()}\n")
    buffer.write(
        "# columns: grid_index, alpha (mixing angle), mean spin (jx, jy, jz),\n"
        "#   frame angles (theta, phi), transverse variances, third moments by\n"
        "#   both routes, s, and a frame_undefined flag (s left empty when set)\n"
    )
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SCAN_COLUMNS)
    # each row is written as its stack is evaluated, so states and reports
    # never span the whole grid; the text does, since an error document must
    # be able to replace it
    reports = moment_reports(
        _pair_mix_state(n_atoms, index_a, index_b, alpha) for alpha in alphas
    )
    writer.writerows(map(_scan_row, range(points), alphas, reports))
    return buffer.getvalue(), EXIT_OK


def _cmd_sample(args, raw):
    estimate = estimate_s_from_samples(_decode_state(args, raw), args.shots, args.seed)
    document = _envelope(args, raw)
    record_xp = estimate.record_xp.to_dict()
    record_xp["estimates"] = estimate.estimates_xp.to_dict()
    record_yp = estimate.record_yp.to_dict()
    record_yp["estimates"] = estimate.estimates_yp.to_dict()
    document["sampling"] = {
        "m_shots": args.shots,
        "s_hat": estimate.s_hat,
        "s_se": estimate.s_se,
        "records": [record_xp, record_yp],
    }
    return _json_text(document), EXIT_OK


def _seed_arg(text):
    """argparse type of ``--seed``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trispin",
        description=(
            "Tripartite entanglement from third-order moments of collective "
            "pseudo-spin operators."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    # every subcommand accepts only the options it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="output path (default stdout)")
    common.add_argument(
        "--seed", type=_seed_arg, default=0, help="random seed (recorded)"
    )
    state_input = argparse.ArgumentParser(add_help=False)
    state_input.add_argument(
        "--input", default="-", help="state JSON path or '-' for stdin"
    )
    state_input.add_argument(
        "--normalize", action="store_true",
        help="renormalize state input instead of rejecting noisy norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_compute = sub.add_parser(
        "compute", parents=[common, state_input],
        help="moment report and S for one state",
    )
    p_compute.set_defaults(func=_cmd_compute, read=_read_input)
    p_verify = sub.add_parser(
        "verify", parents=[common], help="identity suite and randomized sweeps"
    )
    p_verify.add_argument("--trials", type=int, default=100, help="sweep trial count")
    p_verify.add_argument("--n", type=int, default=None, help="atom count override")
    p_verify.add_argument(
        "--corrupt-identity", default=None, metavar="ID",
        help="debug: flip one identity's right-hand side to prove failures surface",
    )
    p_verify.set_defaults(func=_cmd_verify, read=_read_nothing)
    p_scan = sub.add_parser(
        "scan", parents=[common], help="CSV sweep over a one-parameter state family"
    )
    p_scan.add_argument("--grid", default=None, help="inline grid JSON")
    p_scan.set_defaults(func=_cmd_scan, read=_read_grid)
    p_sample = sub.add_parser(
        "sample", parents=[common, state_input],
        help="Monte Carlo measurement estimate of S",
    )
    p_sample.add_argument("--shots", type=int, default=100000, help="measurement shots")
    p_sample.set_defaults(func=_cmd_sample, read=_read_input)
    return parser


@functools.cache
def _parser():
    # parsing leaves the parser untouched, so one instance serves every call
    return build_parser()


def main(argv=None):
    """Run one subcommand and write its artifact; returns the exit code.

    The one place that maps exceptions to exit codes: an undefined frame
    gives 3, and any other input error (unreadable or malformed input, a
    value the library refuses) gives 2.  Both write an error document where
    the artifact would have gone.  An ``--output`` path that cannot be
    written also gives 2, with one line on stderr.  Running out of memory and
    internal faults are not input errors and propagate.
    """
    args = _parser().parse_args(argv)
    raw = b""
    try:
        raw = args.read(args)
        text, code = args.func(args, raw)
    except FrameUndefinedError as exc:
        text = _error_text(args, raw, "frame_undefined", exc)
        code = EXIT_FRAME_UNDEFINED
    except (OSError, ValueError, TrispinError) as exc:
        text = _error_text(args, raw, "invalid_input", exc)
        code = EXIT_INVALID_INPUT
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"trispin: cannot write {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
    else:
        sys.stdout.write(text)
    return code


def run():
    raise SystemExit(main())
