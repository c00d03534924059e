"""Command-line entry point: compute, verify, scan, sample.

Every artifact embeds the tool version, the seed, the route tolerances, a
SHA-256 checksum of the raw input, and a timestamp; reruns with identical
inputs are byte-identical apart from the timestamp field.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 frame
undefined.

Where an in-process ``compute`` of an N=8 ``dicke`` document spends its
≈335 µs (timeit, warm, one BLAS thread on one CPU of a 2-vCPU Xeon):
``entanglement_s`` ≈120 µs, the artifact's text (``_document``) ≈43 µs and
``state_from_dict`` ≈33 µs; the rest is argument parsing, ``json.loads``
and the report's dictionaries.  At N=999999 (a 49 MB document) a fresh
process takes ≈2.3 s and 449 MB peak RSS; in one process ``json.loads``
takes ≈1.2 s, ``entanglement_s`` ≈0.7 s and ``state_from_dict`` ≈0.2 s.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import sys
from datetime import datetime, timezone
from itertools import count, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import FrameUndefinedError, InvalidStateError, TrispinError
from .moments import (
    ROUTE_ABS_FLOOR,
    ROUTE_REL_TOL,
    entanglement_s,
    stack_columns,
    stacks_of,
)
from .states import _integer_field, ladder_stack, state_from_dict

# `verify` and `sample` import their modules when they run, so `compute` and
# `scan` never load trispin.verify or trispin.sampler.

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_FRAME_UNDEFINED = 3

# Most ladder levels one command may span: N + 1 for a `compute` or `sample`
# document or `verify --n`, points x (N + 1) for a scan grid.  At the limit a
# scan took 401 MB peak RSS for a single N=999999 point, 36 MB for 1000 points
# at N=999 and 114 MB for 250000 points at N=3, most of it the CSV lines (one
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


def _envelope(args, input_bytes):
    return {
        "tool": {"name": "trispin", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "tolerances": {"rel": ROUTE_REL_TOL, "abs": ROUTE_ABS_FLOOR},
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
    }


def _json_text(value, indent="\n"):
    """``json.dumps(value, indent=2)``, written directly.

    With an indent CPython 3.11's ``json`` runs its pure-Python encoder.
    This writer follows the same rules in about 70% of its time:
    types told apart by ``isinstance`` (floats and containers first, which
    changes nothing, as no value is an instance of two of them), strings
    through ``encode_basestring_ascii``, floats by ``float.__repr__`` or as
    ``NaN`` and ``±Infinity``, and ``TypeError`` on any other type.
    ``indent`` is the newline and indentation of ``value``'s own line.
    """
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            (encode_basestring_ascii(key) if isinstance(key, str) else _json_key(key))
            + ": " + _json_text(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {value.__class__.__name__} is not JSON serializable"
    )


def _json_key(key):
    """A dict key that is not a string, quoted as ``json.dumps`` writes it."""
    if key is None or isinstance(key, (int, float)):
        return '"' + _json_text(key) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _document(args, raw, **fields):
    """A JSON artifact as one text piece: the envelope, then ``fields``."""
    return [_json_text(_envelope(args, raw) | fields) + "\n"]


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


def _json_value(text, what):
    """``json.loads(text)``; a nesting past the recursion limit is bad input."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise InvalidStateError(f"{what} nests too deeply to decode: {exc}") from exc


def _decode_state(args, raw):
    data = _json_value(raw.decode("utf-8"), "state JSON")
    state = state_from_dict(data, auto_normalize=args.normalize)
    _check_levels(state.n_atoms + 1, f"a state of {state.n_atoms} atoms")
    return state


# Commands take the parsed arguments and the bytes their reader returned, and
# give back (list of artifact text pieces, exit code); bad input raises, and
# ``main`` turns the exception into an error document.

def _cmd_compute(args, raw):
    report = entanglement_s(_decode_state(args, raw)).to_dict()
    max_rel_dev = report["routes"]["max_rel_dev"]
    return _document(args, raw, report=report, route_check={
        "max_rel_dev": max_rel_dev,
        "tolerance_rel": ROUTE_REL_TOL,
        "passed": max_rel_dev <= ROUTE_REL_TOL,
    }), EXIT_OK


def _cmd_verify(args, raw):
    from .verify import run_verification

    if args.n is not None:
        _check_levels(args.n + 1, f"--n {args.n}")
    report = run_verification(
        trials=args.trials,
        seed=args.seed,
        n_atoms=args.n,
        corrupt_identity=args.corrupt_identity,
    )
    code = EXIT_OK if report["passed"] else EXIT_VERIFICATION_FAILED
    return _document(args, raw, verification=report), code


def _parse_grid(text):
    try:
        grid = _json_value(text, "grid JSON")
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
        if not (isinstance(start, (int, float)) and isinstance(stop, (int, float))):
            raise TypeError(
                f"start and stop must be numbers, got {start!r} and {stop!r}"
            )
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


# the columns from theta to s of a stack's framed rows, in column order
_FRAMED_COLUMNS = operator.attrgetter(
    "frame.theta", "frame.phi", "var_xp", "var_yp",
    "m3_xp_direct", "m3_yp_direct", "m3_xp_sum", "m3_yp_sum", "s_parameter",
)
# theta to s left empty, then the frame_undefined flag
_UNDEFINED_TAIL = "," * 9 + "1\n"


def _scan_lines(start, alphas, columns):
    """The CSV lines of one stack of grid points, the first with index ``start``.

    Each framed row's values, from theta to s, are formatted column by
    column with ``repr``; an undefined row leaves them empty and sets its
    flag.  Each line is one ``join``: a ``str.format`` line keeps the
    writer's spare capacity, about 60 bytes a line.
    """
    tails = [_UNDEFINED_TAIL] * len(alphas)
    framed = zip(*map(map, repeat(repr), _FRAMED_COLUMNS(columns)), repeat("0\n"))
    for k, tail in zip(columns.frame.framed, map(",".join, framed)):
        tails[k] = tail
    return list(map(",".join, zip(
        map(str, count(start)), map(repr, alphas), map(repr, columns.jx),
        map(repr, columns.jy), map(repr, columns.jz), tails,
    )))


def _pair_mix_grid(n_atoms, index_a, index_b, alphas):
    """The grid points at ``alphas`` as one checked ``(K, N+1)`` ladder stack.

    Row i is cos(alpha_i) on level ``index_a`` and sin(alpha_i) on level
    ``index_b``, normalized: the coefficients ``symmetric_state`` gives that
    point alone, with ``math.cos`` and ``math.sin`` taken per point.
    """
    rows = np.zeros((len(alphas), n_atoms + 1), dtype=complex)
    rows[:, index_a] = list(map(math.cos, alphas))
    rows[:, index_b] = list(map(math.sin, alphas))
    return ladder_stack(n_atoms, rows, normalize=True)


def _cmd_scan(args, raw):
    n_atoms, index_a, index_b, start, stop, points = _parse_grid(raw.decode("utf-8"))
    alphas = [
        start if points == 1 else start + (stop - start) * index / (points - 1)
        for index in range(points)
    ]
    # the grid is built and evaluated one stack at a time, so states and
    # reports never span the whole grid (one array of it doubled the peak of
    # 1000 points at N=999); the lines do, so that an error document can
    # replace them, and the envelope is taken once every row has succeeded
    parts = stacks_of(alphas, n_atoms + 1)
    grid = (_pair_mix_grid(n_atoms, index_a, index_b, part) for part in parts)
    rows = []
    for columns in stack_columns(grid):
        done = len(rows)
        rows += _scan_lines(done, alphas[done:done + len(columns.jx)], columns)
    envelope = _envelope(args, raw)
    tolerances = envelope["tolerances"]
    return [
        f"# trispin scan v{envelope['tool']['version']}\n",
        f"# seed: {envelope['seed']}\n",
        f"# tolerances: rel={tolerances['rel']!r} abs={tolerances['abs']!r}\n",
        f"# input_sha256: {envelope['input_sha256']}\n",
        f"# timestamp: {envelope['timestamp']}\n",
        "# columns: grid_index, alpha (mixing angle), mean spin (jx, jy, jz),\n"
        "#   frame angles (theta, phi), transverse variances, third moments by\n"
        "#   both routes, s, and a frame_undefined flag (s left empty when set)\n",
        ",".join(_SCAN_COLUMNS) + "\n",
        *rows,
    ], EXIT_OK


def _cmd_sample(args, raw):
    from .sampler import estimate_s_from_samples

    estimate = estimate_s_from_samples(_decode_state(args, raw), args.shots, args.seed)
    record_xp = estimate.record_xp.to_dict()
    record_xp["estimates"] = estimate.estimates_xp.to_dict()
    record_yp = estimate.record_yp.to_dict()
    record_yp["estimates"] = estimate.estimates_yp.to_dict()
    return _document(args, raw, sampling={
        "m_shots": args.shots,
        "s_hat": estimate.s_hat,
        "s_se": estimate.s_se,
        "records": [record_xp, record_yp],
    }), EXIT_OK


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
        pieces, code = args.func(args, raw)
    except FrameUndefinedError as exc:
        error = {"code": "frame_undefined", "message": str(exc)}
        pieces, code = _document(args, raw, error=error), EXIT_FRAME_UNDEFINED
    except (OSError, ValueError, TrispinError) as exc:
        error = {"code": "invalid_input", "message": str(exc)}
        pieces, code = _document(args, raw, error=error), EXIT_INVALID_INPUT
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            print(f"trispin: cannot write {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_INVALID_INPUT
    else:
        sys.stdout.writelines(pieces)
    return code


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
