"""Command-line entry point: compute, verify, scan, sample.

Every artifact embeds the tool version, the seed, the active tolerances, a
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
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import FrameUndefinedError, InvalidStateError, TrispinError
from .frame import mean_spin
from .moments import ROUTE_ABS_FLOOR, ROUTE_REL_TOL, entanglement_s
from .sampler import estimate_s_from_samples
from .states import state_from_dict, symmetric_state
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_FRAME_UNDEFINED = 3


def _timestamp():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _envelope(args, input_bytes):
    return {
        "tool": {"name": "trispin", "version": __version__},
        "timestamp": _timestamp(),
        "seed": args.seed,
        "tolerances": {
            "rel": args.tolerance_rel,
            "abs": args.tolerance_abs,
        },
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
    }


def _emit(document, output_path):
    text = json.dumps(document, indent=2) + "\n"
    if output_path and output_path != "-":
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(args, input_bytes, code, message, output_path=None):
    document = _envelope(args, input_bytes)
    document["error"] = {"code": code, "message": message}
    _emit(document, output_path)


def _read_input(path):
    if path == "-":
        return sys.stdin.read().encode("utf-8")
    with open(path, "rb") as handle:
        return handle.read()


def _load_state(args):
    """``(raw bytes, state, None)``, or ``(bytes read, None, error)``."""
    raw = b""
    try:
        raw = _read_input(args.input)
        data = json.loads(raw.decode("utf-8"))
        return raw, state_from_dict(data, auto_normalize=args.normalize), None
    except (OSError, ValueError, TrispinError) as exc:
        return raw, None, exc


def _cmd_compute(args):
    raw, state, error = _load_state(args)
    if error is not None:
        _emit_error(args, raw, "invalid_input", str(error), args.output)
        return EXIT_INVALID_INPUT
    try:
        report = entanglement_s(state)
    except FrameUndefinedError as exc:
        _emit_error(args, raw, "frame_undefined", str(exc), args.output)
        return EXIT_FRAME_UNDEFINED
    except TrispinError as exc:
        _emit_error(args, raw, "invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT
    document = _envelope(args, raw)
    document["report"] = report.to_dict()
    max_rel_dev = report.max_rel_dev(args.tolerance_rel, args.tolerance_abs)
    document["route_check"] = {
        "max_rel_dev": max_rel_dev,
        "tolerance_rel": args.tolerance_rel,
        "passed": max_rel_dev <= args.tolerance_rel,
    }
    _emit(document, args.output)
    return EXIT_OK


def _cmd_verify(args):
    try:
        report = run_verification(
            trials=args.trials,
            seed=args.seed,
            n_atoms=args.n,
            corrupt_identity=args.corrupt_identity,
        )
    except (ValueError, TrispinError) as exc:
        _emit_error(args, b"", "invalid_input", str(exc))
        return EXIT_INVALID_INPUT
    document = _envelope(args, b"")
    document["verification"] = report
    _emit(document, args.output)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION_FAILED


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
        n_atoms = int(grid["n_atoms"])
        index_a = int(grid.get("index_a", 0))
        index_b = int(grid.get("index_b", 1))
        start = float(grid.get("start", 0.0))
        stop = float(grid["stop"])
        points = int(grid["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidStateError(f"missing or malformed grid field: {exc}") from exc
    if points < 1:
        raise InvalidStateError(f"grid needs at least 1 point, got {points}")
    if not (0 <= index_a <= n_atoms and 0 <= index_b <= n_atoms):
        raise InvalidStateError("grid level indices outside 0..N")
    if index_a == index_b:
        raise InvalidStateError("grid level indices must differ")
    return n_atoms, index_a, index_b, start, stop, points


_SCAN_COLUMNS = (
    "grid_index", "alpha", "jx", "jy", "jz", "theta", "phi",
    "var_xp", "var_yp", "m3_xp_direct", "m3_yp_direct",
    "m3_xp_sum", "m3_yp_sum", "s", "frame_undefined",
)


def _scan_row(index, alpha, state):
    try:
        report = entanglement_s(state)
    except FrameUndefinedError:
        mean = mean_spin(state)
        head = [index, repr(alpha), repr(mean.jx), repr(mean.jy), repr(mean.jz)]
        return head + [""] * 9 + [1]
    return [
        index,
        repr(alpha),
        repr(report.mean_spin.jx),
        repr(report.mean_spin.jy),
        repr(report.mean_spin.jz),
        repr(report.angles.theta),
        repr(report.angles.phi),
        repr(report.var_xp),
        repr(report.var_yp),
        repr(report.m3_xp_direct),
        repr(report.m3_yp_direct),
        repr(report.m3_xp_sum),
        repr(report.m3_yp_sum),
        repr(report.s_parameter),
        0,
    ]


def _cmd_scan(args):
    if not args.grid:
        _emit_error(args, b"", "invalid_input", "scan needs --grid", args.output)
        return EXIT_INVALID_INPUT
    grid_bytes = args.grid.encode("utf-8")
    try:
        n_atoms, index_a, index_b, start, stop, points = _parse_grid(args.grid)
        rows = []
        for index in range(points):
            alpha = (
                start if points == 1 else start + (stop - start) * index / (points - 1)
            )
            coeffs = [0.0] * (n_atoms + 1)
            coeffs[index_a] = math.cos(alpha)
            coeffs[index_b] = math.sin(alpha)
            state = symmetric_state(n_atoms, coeffs, normalize=True)
            rows.append(_scan_row(index, alpha, state))
    except TrispinError as exc:
        _emit_error(args, grid_bytes, "invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT

    buffer = io.StringIO()
    buffer.write(f"# trispin scan v{__version__}\n")
    buffer.write(f"# seed: {args.seed}\n")
    buffer.write(
        f"# tolerances: rel={args.tolerance_rel!r} abs={args.tolerance_abs!r}\n"
    )
    buffer.write(f"# input_sha256: {hashlib.sha256(grid_bytes).hexdigest()}\n")
    buffer.write(f"# timestamp: {_timestamp()}\n")
    buffer.write(
        "# columns: grid_index, alpha (mixing angle), mean spin (jx, jy, jz),\n"
        "#   frame angles (theta, phi), transverse variances, third moments by\n"
        "#   both routes, s, and a frame_undefined flag (s left empty when set)\n"
    )
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SCAN_COLUMNS)
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sample(args):
    raw, state, error = _load_state(args)
    if error is not None:
        _emit_error(args, raw, "invalid_input", str(error), args.output)
        return EXIT_INVALID_INPUT
    try:
        estimate = estimate_s_from_samples(state, args.shots, args.seed)
    except FrameUndefinedError as exc:
        _emit_error(args, raw, "frame_undefined", str(exc), args.output)
        return EXIT_FRAME_UNDEFINED
    except TrispinError as exc:
        _emit_error(args, raw, "invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT
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
    _emit(document, args.output)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trispin",
        description=(
            "Tripartite entanglement from third-order moments of collective "
            "pseudo-spin operators."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input", default="-", help="state JSON path or '-' for stdin"
    )
    common.add_argument("--output", default=None, help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=0, help="random seed (recorded)")
    common.add_argument("--trials", type=int, default=100, help="sweep trial count")
    common.add_argument("--shots", type=int, default=100000, help="measurement shots")
    common.add_argument("--grid", default=None, help="inline grid JSON for scan")
    common.add_argument("--n", type=int, default=None, help="atom count override")
    common.add_argument(
        "--normalize", action="store_true",
        help="renormalize state input instead of rejecting noisy norms",
    )
    common.add_argument(
        "--tolerance-rel", type=float, default=ROUTE_REL_TOL,
        help="route-equivalence relative tolerance",
    )
    common.add_argument(
        "--tolerance-abs", type=float, default=ROUTE_ABS_FLOOR,
        help="route-equivalence absolute floor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_compute = sub.add_parser(
        "compute", parents=[common], help="moment report and S for one state"
    )
    p_compute.set_defaults(func=_cmd_compute)
    p_verify = sub.add_parser(
        "verify", parents=[common], help="identity suite and randomized sweeps"
    )
    p_verify.add_argument(
        "--corrupt-identity", default=None, metavar="ID",
        help="debug: flip one identity's right-hand side to prove failures surface",
    )
    p_verify.set_defaults(func=_cmd_verify)
    p_scan = sub.add_parser(
        "scan", parents=[common], help="CSV sweep over a one-parameter state family"
    )
    p_scan.set_defaults(func=_cmd_scan)
    p_sample = sub.add_parser(
        "sample", parents=[common], help="Monte Carlo measurement estimate of S"
    )
    p_sample.set_defaults(func=_cmd_sample)
    return parser


@functools.cache
def _parser():
    # parsing leaves the parser untouched, so one instance serves every call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.func(args)


def run():
    raise SystemExit(main())
