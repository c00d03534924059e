import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispin import cli
from trispin.cli import main

DATA_DIR = Path(__file__).parent / "data"
VERIFY_PINS = json.loads((DATA_DIR / "verify_pin.json").read_text())["verify"]

PAIR_MIX_GRID = json.dumps(
    {
        "family": "pair_mix",
        "n_atoms": 3,
        "index_a": 0,
        "index_b": 1,
        "stop": 1.5707963267948966,
        "points": 101,
    }
)


def write_state(tmp_path, name, coeffs, n_atoms=3, representation="dicke"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {"n_atoms": n_atoms, "representation": representation, "coeffs": coeffs}
        )
    )
    return str(path)


def scrub_timestamp(text):
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)
    return re.sub(r"# timestamp: .*", "# timestamp: X", text)


@pytest.fixture
def top_state(tmp_path):
    return write_state(tmp_path, "top.json", [[1, 0], [0, 0], [0, 0], [0, 0]])


@pytest.fixture
def ghz_state(tmp_path):
    r = 1 / math.sqrt(2)
    return write_state(tmp_path, "ghz.json", [[r, 0], [0, 0], [0, 0], [r, 0]])


@pytest.fixture
def pinned_state(tmp_path, pins):
    return write_state(tmp_path, "pinned.json", pins["pinned_entangled"]["coeffs"])


@pytest.fixture
def product_file(tmp_path):
    r = 1 / math.sqrt(2)
    return write_state(
        tmp_path, "product.json", [[[r, 0], [r, 0]]] * 3, representation="product"
    )


class TestCompute:
    def test_top_state(self, top_state, tmp_path):
        out = tmp_path / "out.json"
        assert main(["compute", "--input", top_state, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["s_parameter"] == 0.0
        assert doc["report"]["angles"]["theta"] == 0.0
        assert doc["route_check"]["passed"]

    def test_ghz_state_exits_frame_undefined(self, ghz_state, tmp_path):
        out = tmp_path / "out.json"
        assert main(["compute", "--input", ghz_state, "--output", str(out)]) == 3
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "frame_undefined"

    def test_pinned_state_matches_regression_pin(self, pinned_state, tmp_path, pins):
        out = tmp_path / "out.json"
        assert main(["compute", "--input", pinned_state, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["report"]["s_parameter"] - pins["pinned_entangled"]["s"]) <= 1e-12

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["compute", "--input", str(bad)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid_input"

    def test_unnormalized_needs_flag(self, tmp_path):
        path = write_state(tmp_path, "noisy.json", [[1, 0], [1, 0], [0, 0], [0, 0]])
        out = tmp_path / "out.json"
        assert main(["compute", "--input", path, "--output", str(out)]) == 2
        assert (
            main(["compute", "--input", path, "--normalize", "--output", str(out)])
            == 0
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("representation, scale, coeffs", [
        # the squares overflow
        pytest.param("dicke", 1e200, None, id="dicke-1e+200"),
        # the squares underflow to 0
        pytest.param("dicke", 1e-170, None, id="dicke-1e-170"),
        # the squares are subnormal
        pytest.param("dicke", 1e-158, None, id="dicke-1e-158"),
        pytest.param("product", 1e200, None, id="product-1e+200"),
        pytest.param("product", 1e-170, None, id="product-1e-170"),
        # subnormal amplitudes, with dyadic coefficients that stay exact
        pytest.param("dicke", 2.0**-1060,
                     [[1, 0], [0.5, 0.25], [0.125, 0], [0.0625, -0.375]],
                     id="dicke-dyadic-2**-1060"),
        pytest.param("product", 2.0**-1060, [[[0.75, 0.125], [0.375, 0]]] * 3,
                     id="product-dyadic-2**-1060"),
        # the smallest subnormal on one level
        pytest.param("dicke", 5e-324, [[0, 0], [1, 0], [0, 0], [0, 0]],
                     id="dicke-5e-324"),
        pytest.param("product", 5e-324, [[[0, 0], [1, 0]]] * 3, id="product-5e-324"),
    ])
    def test_normalize_takes_amplitudes_of_any_scale(
        self, representation, scale, coeffs, tmp_path, capsys
    ):
        if coeffs is None and representation == "dicke":
            coeffs = [[1, 0], [0.5, 0.25], [0.2, 0], [0.1, -0.3]]
        elif coeffs is None:
            coeffs = [[[0.6, 0.1], [0.3, 0]]] * 3
        scaled = (np.array(coeffs) * scale).tolist()
        s_values = []
        for name, data in (("unit.json", coeffs), ("scaled.json", scaled)):
            path = write_state(tmp_path, name, data, representation=representation)
            argv = ["compute", "--input", path, "--normalize"]
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            s_values.append(json.loads(captured.out)["report"]["s_parameter"])
        assert s_values[1] == pytest.approx(s_values[0], rel=1e-12, abs=1e-15)

    def test_reruns_byte_identical_except_timestamp(self, pinned_state, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["compute", "--input", pinned_state, "--output", str(out_a)])
        main(["compute", "--input", pinned_state, "--output", str(out_b)])
        assert scrub_timestamp(out_a.read_text()) == scrub_timestamp(out_b.read_text())

    def test_envelope_fields(self, top_state, tmp_path):
        out = tmp_path / "out.json"
        main(["compute", "--input", top_state, "--seed", "7", "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["tool"]["name"] == "trispin"
        assert doc["seed"] == 7
        assert set(doc["tolerances"]) == {"rel", "abs"}
        assert re.fullmatch(r"[0-9a-f]{64}", doc["input_sha256"])

    def test_product_representation_accepted(self, product_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["compute", "--input", product_file, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["report"]["s_parameter"]) <= 1e-10

    def test_parse_error_honours_output_and_hashes_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"{not json")
        out = tmp_path / "out.json"
        assert main(["compute", "--input", str(bad), "--output", str(out)]) == 2
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"
        assert doc["input_sha256"] == hashlib.sha256(b"{not json").hexdigest()

    @pytest.mark.parametrize("representation, coeffs", [
        ("dicke", [[math.nan, 0], [0, 0], [0, 0], [0, 0]]),
        ("product", [[[math.nan, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]]),
    ])
    def test_nan_amplitude_exits_2(self, tmp_path, representation, coeffs):
        path = write_state(tmp_path, "nan.json", coeffs, representation=representation)
        out = tmp_path / "out.json"
        assert main(["compute", "--input", path, "--output", str(out)]) == 2
        text = out.read_text()
        assert "NaN" not in text
        assert json.loads(text)["error"]["code"] == "invalid_input"

    @pytest.mark.parametrize("case", [0, 1])
    def test_artifact_matches_the_golden_pin(self, case, tmp_path):
        pin = json.loads((DATA_DIR / "compute_pin.json").read_text())
        entry = pin["compute"][case]
        path = tmp_path / f"{entry['name']}.json"
        path.write_text(entry["input"])
        out = tmp_path / "out.json"
        assert main(["compute", "--input", str(path), "--output", str(out)]) == 0
        assert scrub_timestamp(out.read_text()) == entry["artifact"]

    def test_reads_state_from_stdin(self, top_state, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(open(top_state, encoding="utf-8").read())
        )
        assert main(["compute", "--input", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["s_parameter"] == 0.0


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            ["verify", "--trials", "10", "--seed", "5", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verification"]["passed"]
        assert len(doc["verification"]["identities"]) == 33

    def test_deterministic_report(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--trials", "10", "--seed", "5"]
        main(args + ["--output", str(out_a)])
        main(args + ["--output", str(out_b)])
        assert scrub_timestamp(out_a.read_text()) == scrub_timestamp(out_b.read_text())

    def test_corrupted_identity_exits_1(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify", "--trials", "5", "--seed", "5",
                "--corrupt-identity", "JxJxJx", "--output", str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert not doc["verification"]["passed"]

    @pytest.mark.parametrize("case", range(len(VERIFY_PINS)))
    def test_artifact_matches_the_golden_pin(self, case, tmp_path):
        entry = VERIFY_PINS[case]
        out = tmp_path / "verify.json"
        assert main(["verify", *entry["args"], "--output", str(out)]) == entry["exit_code"]
        assert scrub_timestamp(out.read_text()) == entry["artifact"]

    def test_atom_count_override_narrows_sweeps(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            ["verify", "--trials", "5", "--seed", "1", "--n", "8",
             "--output", str(out)]
        )
        assert code == 0
        sweeps = {
            s["check_id"]
            for s in json.loads(out.read_text())["verification"]["sweeps"]
        }
        # the dense sum-route window is 3..6, so only the product sweep runs
        assert sweeps == {"cancellation_sweep", "product_vanishing_n8"}

    def test_too_small_atom_count_exits_2(self, capsys):
        assert main(["verify", "--trials", "5", "--n", "2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_2(self, tmp_path, capsys, trials):
        out = tmp_path / "verify.json"
        assert main(["verify", "--trials", trials, "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"
        assert "verification" not in doc

    def test_error_document_honours_output(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--n", "2", "--output", str(out)]) == 2
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"

    def test_unknown_corrupt_identity_exits_2(self, tmp_path):
        out = tmp_path / "verify.json"
        argv = ["verify", "--trials", "5", "--corrupt-identity", "JxJxJq"]
        assert main(argv + ["--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"
        assert "JxJxJq" in doc["error"]["message"]

    def test_envelope_records_the_module_tolerances(self, tmp_path):
        out = tmp_path / "verify.json"
        main(["verify", "--trials", "5", "--n", "8", "--output", str(out)])
        assert json.loads(out.read_text())["tolerances"] == {"rel": 1e-9, "abs": 1e-12}


class TestScan:
    def test_endpoints_have_zero_s(self, tmp_path, capsys):
        grid = json.dumps(
            {
                "family": "pair_mix", "n_atoms": 3, "index_a": 0, "index_b": 1,
                "stop": 1.5707963267948966, "points": 2,
            }
        )
        assert main(["scan", "--grid", grid]) == 0
        rows = [
            line.split(",")
            for line in capsys.readouterr().out.splitlines()
            if line and not line.startswith("#") and not line.startswith("grid_index")
        ]
        assert len(rows) == 2
        # alpha = 0 is the fully polarized product level, alpha = pi/2 the
        # single-excitation level: both carry S = 0
        assert float(rows[0][13]) == 0.0
        assert abs(float(rows[1][13])) <= 1e-12

    def test_sweep_deterministic_and_monotone(self, tmp_path, pins):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--grid", PAIR_MIX_GRID, "--output", str(out_a)])
        main(["scan", "--grid", PAIR_MIX_GRID, "--output", str(out_b)])
        assert scrub_timestamp(out_a.read_text()) == scrub_timestamp(out_b.read_text())
        rows = [
            line.split(",")
            for line in out_a.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("grid_index")
        ]
        assert len(rows) == 101
        alphas = [float(r[1]) for r in rows]
        assert alphas == sorted(alphas)
        pin = pins["scan_pair_mix_101"]
        s_values = [float(r[13]) for r in rows]
        best = max(range(101), key=lambda i: s_values[i])
        assert best == pin["argmax_index"]
        assert s_values[best] == pytest.approx(pin["max_s"], abs=1e-12)
        assert alphas[best] == pytest.approx(pin["argmax_alpha"], abs=1e-12)

    def test_csv_matches_the_golden_pin(self, tmp_path):
        # the 5-point grid, then the three bench grids (N=4 x 9 has a
        # frame-undefined middle point)
        data = json.loads((DATA_DIR / "compute_pin.json").read_text())
        out = tmp_path / "scan.csv"
        for pin in [data["scan"], *data["scan_bench_grids"]]:
            assert main(["scan", "--grid", pin["grid"], "--output", str(out)]) == 0
            assert scrub_timestamp(out.read_text()) == pin["csv"], pin["grid"]

    def test_header_carries_the_envelope_values(self, monkeypatch, capsys):
        argv = ["scan", "--grid", PAIR_MIX_GRID, "--seed", "7"]
        envelope = cli._envelope(cli._parser().parse_args(argv), PAIR_MIX_GRID.encode())
        # the same values, so the header's timestamp is the envelope's own
        monkeypatch.setattr(cli, "_envelope", lambda args, raw: envelope)
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[:5] == [
            f"# trispin scan v{envelope['tool']['version']}",
            f"# seed: {envelope['seed']}",
            f"# tolerances: rel={envelope['tolerances']['rel']!r} "
            f"abs={envelope['tolerances']['abs']!r}",
            f"# input_sha256: {envelope['input_sha256']}",
            f"# timestamp: {envelope['timestamp']}",
        ]

    def test_points_are_evaluated_as_one_stack(self, monkeypatch, capsys):
        from trispin import frame, moments

        stacks = []
        evaluate = moments._stack_reports

        def counting(n_atoms, syms):
            stacks.append(len(syms))
            return evaluate(n_atoms, syms)

        def per_point(*args):
            raise AssertionError("scan evaluated a point on its own")

        monkeypatch.setattr(moments, "_stack_reports", counting)
        monkeypatch.setattr(cli, "entanglement_s", per_point)
        monkeypatch.setattr(moments, "entanglement_s", per_point)
        monkeypatch.setattr(frame, "mean_spin", per_point)
        assert main(["scan", "--grid", PAIR_MIX_GRID]) == 0
        assert stacks == [101]
        capsys.readouterr()

    def test_points_stream_through_bounded_stacks(self, monkeypatch, capsys):
        from trispin import moments

        monkeypatch.setattr(moments, "STACK_LEVELS", 20)  # 5 points of 4 levels
        counts = {"drawn": 0, "used": 0}
        ahead = []
        make_grid, make_lines = cli._pair_mix_grid, cli._scan_lines

        def drawing(n_atoms, index_a, index_b, alphas):
            counts["drawn"] += len(alphas)
            return make_grid(n_atoms, index_a, index_b, alphas)

        def using(start, alphas, columns):
            # counted before the rows are written: their stack is drawn, not
            # yet written
            ahead.append(counts["drawn"] - counts["used"])
            counts["used"] += len(alphas)
            return make_lines(start, alphas, columns)

        monkeypatch.setattr(cli, "_pair_mix_grid", drawing)
        monkeypatch.setattr(cli, "_scan_lines", using)
        assert main(["scan", "--grid", PAIR_MIX_GRID]) == 0
        assert counts == {"drawn": 101, "used": 101}
        # never more than two stacks of points drawn ahead of the rows written
        assert max(ahead) <= 2 * 5
        capsys.readouterr()

    def test_full_round_trip_floats(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(["scan", "--grid", PAIR_MIX_GRID, "--output", str(out)])
        row = [
            line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("grid_index")
        ][50].split(",")
        # repr round-trip: re-parsing and re-formatting reproduces the text
        assert repr(float(row[13])) == row[13]

    @pytest.mark.parametrize(
        "grid",
        [
            "not json",
            json.dumps({"family": "mystery"}),
            json.dumps({"family": "pair_mix", "n_atoms": 3, "stop": 1.0, "points": 0}),
            json.dumps(
                {"family": "pair_mix", "n_atoms": 3, "index_a": 9, "index_b": 1,
                 "stop": 1.0, "points": 3}
            ),
            json.dumps(
                {"family": "pair_mix", "n_atoms": 3, "index_a": 1, "index_b": 1,
                 "stop": 1.0, "points": 3}
            ),
        ],
    )
    def test_malformed_grid_exits_2(self, grid, capsys):
        assert main(["scan", "--grid", grid]) == 2
        capsys.readouterr()

    def test_missing_grid_exits_2(self, capsys):
        assert main(["scan"]) == 2
        capsys.readouterr()

    def test_too_few_atoms_exits_2_with_error_document(self, tmp_path):
        grid = json.dumps(
            {"family": "pair_mix", "n_atoms": 2, "stop": 1.0, "points": 3}
        )
        out = tmp_path / "scan.json"
        assert main(["scan", "--grid", grid, "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"
        assert doc["input_sha256"] == hashlib.sha256(grid.encode()).hexdigest()


class TestSample:
    def test_product_state_near_zero(self, product_file, tmp_path):
        out = tmp_path / "sample.json"
        code = main(
            [
                "sample", "--input", product_file, "--shots", "100000",
                "--seed", "1", "--output", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        sampling = doc["sampling"]
        assert sampling["s_hat"] <= 5 * sampling["s_se"]
        tags = {r["operator_tag"] for r in sampling["records"]}
        assert tags == {"jx_prime", "jy_prime"}
        assert all("estimates" in r for r in sampling["records"])

    def test_two_seeds_agree_within_errors(self, pinned_state, tmp_path):
        results = []
        for seed in ("3", "4"):
            out = tmp_path / f"sample{seed}.json"
            assert main(
                [
                    "sample", "--input", pinned_state, "--shots", "100000",
                    "--seed", seed, "--output", str(out),
                ]
            ) == 0
            results.append(json.loads(out.read_text())["sampling"])
        gap = abs(results[0]["s_hat"] - results[1]["s_hat"])
        spread = math.hypot(results[0]["s_se"], results[1]["s_se"])
        assert gap <= 5 * spread

    def test_seeded_output_matches_the_golden_pin(self, tmp_path):
        pin = json.loads((DATA_DIR / "sample_pin.json").read_text())
        path = tmp_path / "state.json"
        path.write_text(json.dumps(pin["state"]))
        out = tmp_path / "sample.json"
        assert main(
            [
                "sample", "--input", str(path), "--shots", str(pin["shots"]),
                "--seed", str(pin["seed"]), "--output", str(out),
            ]
        ) == 0
        assert json.loads(out.read_text())["sampling"] == pin["sampling"]

    def test_too_few_shots_exits_2(self, product_file, capsys):
        assert main(["sample", "--input", product_file, "--shots", "10"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid_input"

    def test_frame_undefined_exits_3(self, ghz_state, capsys):
        assert main(["sample", "--input", ghz_state, "--shots", "2000"]) == 3
        capsys.readouterr()

    def test_non_symmetric_product_exits_2(self, tmp_path):
        path = write_state(
            tmp_path, "updownup.json",
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            representation="product",
        )
        out = tmp_path / "sample.json"
        assert main(
            ["sample", "--input", path, "--shots", "2000", "--output", str(out)]
        ) == 2
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"
        assert "sampling" not in doc

    def test_product_past_the_full_space_cap_exits_0(self, tmp_path):
        r = 1 / math.sqrt(2)
        path = write_state(
            tmp_path, "wide.json", [[[r, 0], [r, 0]]] * 15, n_atoms=15,
            representation="product",
        )
        out = tmp_path / "out.json"
        assert main(["compute", "--input", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["n_atoms"] == 15
        assert main(
            ["sample", "--input", path, "--shots", "2000", "--output", str(out)]
        ) == 0
        sampling = json.loads(out.read_text())["sampling"]
        assert [len(r["counts"]) for r in sampling["records"]] == [16, 16]
        assert sampling["s_hat"] <= 6 * sampling["s_se"]

    def test_parse_error_honours_output_and_hashes_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n_atoms": 3}')
        out = tmp_path / "sample.json"
        assert main(["sample", "--input", str(bad), "--output", str(out)]) == 2
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["error"]["code"] == "invalid_input"
        assert doc["input_sha256"] == hashlib.sha256(b'{"n_atoms": 3}').hexdigest()


def state_bytes(n_atoms="3", coeffs="[[1, 0], [0, 0], [0, 0], [0, 0]]",
                representation="dicke"):
    """A state document spelled out as text, so JSON numbers stay literal."""
    return (
        f'{{"n_atoms": {n_atoms}, "representation": "{representation}", '
        f'"coeffs": {coeffs}}}'
    ).encode()


def grid_text(**fields):
    grid = {"family": "pair_mix", "n_atoms": 3, "stop": 1.0, "points": 3}
    grid.update(fields)
    return json.dumps(grid)


R = 1 / math.sqrt(2)
HUGE_COEFF = "[[1" + "0" * 400 + ", 0], [0, 0], [0, 0], [0, 0]]"
UP_DOWN_UP = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]]"
STATE_CASES = {
    "n_atoms_1e999": state_bytes(n_atoms="1e999"),
    "n_atoms_3.9": state_bytes(n_atoms="3.9"),
    "coefficient_10e400": state_bytes(coeffs=HUGE_COEFF),
    "invalid_json": b"{not json",
    "invalid_utf8": b"\xff{}",
    "missing_fields": b'{"n_atoms": 3}',
    "nan_amplitude": state_bytes(coeffs="[[NaN, 0], [0, 0], [0, 0], [0, 0]]"),
    "unnormalized": state_bytes(coeffs="[[1, 0], [1, 0], [0, 0], [0, 0]]"),
    "too_few_atoms": state_bytes(n_atoms="2", coeffs="[[1, 0], [0, 0], [0, 0]]"),
    "non_symmetric_product": state_bytes(coeffs=UP_DOWN_UP, representation="product"),
    # JSON booleans are no numbers, though Python reads True as 1
    "amplitude_true_false": state_bytes(
        coeffs="[[true, false], [0, 0], [0, 0], [0, 0]]"
    ),
    "product_amplitude_true": state_bytes(
        coeffs="[[[1, 0], [0, 0]], [[true, 0], [0, 0]], [[1, 0], [0, 0]]]",
        representation="product",
    ),
    # past the recursion limit of ``json.loads``
    "nested_100000": b"[" * 100000,
}
GRID_CASES = {
    "n_atoms_1e999": '{"family": "pair_mix", "n_atoms": 1e999, "stop": 1.0, '
                     '"points": 3}',
    "stop_1e308": grid_text(stop=1e308),
    "n_atoms_3.9": grid_text(n_atoms=3.9),
    "index_0.5": grid_text(index_a=0.5),
    "points_1e999": '{"family": "pair_mix", "n_atoms": 3, "stop": 1.0, '
                    '"points": 1e999}',
    "stop_10e400": grid_text(stop=10**400),
    "stop_nan": grid_text(stop=math.nan),
    "not_json": "not json",
    "not_an_object": "[]",
    "unknown_family": json.dumps({"family": "mystery"}),
    "missing_stop": json.dumps({"family": "pair_mix", "n_atoms": 3, "points": 3}),
    "no_points": grid_text(points=0),
    "index_outside": grid_text(index_a=9),
    "equal_indices": grid_text(index_a=1, index_b=1),
    "too_few_atoms": grid_text(n_atoms=2),
    "n_atoms_2^62": '{"family": "pair_mix", "n_atoms": 4611686018427387904, '
                    '"stop": 1.0, "points": 3}',
    "levels_past_cap": grid_text(n_atoms=999, points=1001),
    "points_true": grid_text(points=True),
    "index_b_true": grid_text(index_b=True),
    "start_true_stop_false": grid_text(start=True, stop=False),
    "stop_true": grid_text(stop=True),
    "start_string": grid_text(start="0.1"),
    "stop_string_1_5": grid_text(stop="1_5"),
    "nested_5000": "[" * 5000,
}


ZERO_PAIR = state_bytes(coeffs="[[[0, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]]",
                        representation="product")


def bad_inputs():
    """(argv, bytes at --input or None, bytes the reader returns, exit code,
    the exact error message or None where any message will do)."""
    for command in ("compute", "sample"):
        for name, data in STATE_CASES.items():
            yield pytest.param([command], data, data, 2, None, id=f"{command}-{name}")
        ghz = state_bytes(coeffs=f"[[{R}, 0], [0, 0], [0, 0], [{R}, 0]]")
        yield pytest.param([command], ghz, ghz, 3, None, id=f"{command}-ghz")
        yield pytest.param([command, "--input", "missing.json"], None, b"", 2, None,
                           id=f"{command}-unreadable")
        yield pytest.param([command, "--normalize"], ZERO_PAIR, ZERO_PAIR, 2,
                           "cannot normalize a zero qubit amplitude pair",
                           id=f"{command}-normalize_zero_pair")
    yield pytest.param(["sample", "--shots", "10"], state_bytes(), state_bytes(), 2,
                       None, id="sample-too_few_shots")
    for shots in ("10000001", "1000000000000"):
        yield pytest.param(["sample", "--shots", shots], state_bytes(),
                           state_bytes(), 2, None, id=f"sample-shots_{shots}")
    for name, grid in GRID_CASES.items():
        yield pytest.param(["scan", "--grid", grid], None, grid.encode(), 2, None,
                           id=f"scan-{name}")
    yield pytest.param(["scan"], None, b"", 2, None, id="scan-missing_grid")
    yield pytest.param(["scan", "--grid", "\udcff"], None, b"", 2, None,
                       id="scan-unencodable_grid")
    for extra in (["--n", "2"], ["--trials", "0"], ["--corrupt-identity", "JxJxJq"]):
        yield pytest.param(["verify", "--trials", "5"] + extra, None, b"", 2, None,
                           id=f"verify-{extra[0][2:]}")


class TestErrorBoundary:
    """Every subcommand maps bad input to an error document, never a traceback."""

    @pytest.mark.parametrize("argv, data, read, exit_code, message", bad_inputs())
    def test_bad_input_gives_an_error_document(
        self, argv, data, read, exit_code, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        if data is not None:
            (tmp_path / "state.json").write_bytes(data)
            argv = argv + ["--input", "state.json"]
        assert main(argv + ["--output", "out.json"]) == exit_code
        assert capsys.readouterr().out == ""
        doc = json.loads((tmp_path / "out.json").read_text())
        code = "frame_undefined" if exit_code == 3 else "invalid_input"
        assert doc["error"]["code"] == code
        assert doc["input_sha256"] == hashlib.sha256(read).hexdigest()
        if message is not None:
            assert doc["error"]["message"] == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("subcommand", ["compute", "sample"])
    @pytest.mark.parametrize("representation, coeffs, message", [
        pytest.param("dicke", [[1e200, 0], [0, 0], [0, 0], [0, 0]],
                     "state not normalized: sum of squared magnitudes is inf",
                     id="dicke"),
        pytest.param("product", [[[1e200, 0], [0, 0]]] * 3,
                     "atom amplitudes not normalized (worst deviation inf)",
                     id="product"),
    ])
    def test_overflowing_squares_are_refused_without_a_warning(
        self, subcommand, representation, coeffs, message, tmp_path, capsys
    ):
        path = write_state(tmp_path, "huge.json", coeffs, representation=representation)
        assert main([subcommand, "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == {
            "code": "invalid_input", "message": message,
        }

    def test_undecodable_stdin_hashes_no_bytes(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["compute", "--input", "-"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid_input"
        assert doc["input_sha256"] == hashlib.sha256(b"").hexdigest()

    def test_sample_cap_gives_an_error_document(self, tmp_path, monkeypatch):
        from trispin import sampler

        # a small cap keeps the register small: N=4 is one atom past it
        monkeypatch.setattr(sampler, "MAX_SAMPLE_ATOMS", 3)
        path = write_state(tmp_path, "four.json", [[1, 0]] + [[0, 0]] * 4, n_atoms=4)
        out = tmp_path / "out.json"
        assert main(["sample", "--input", path, "--output", str(out)]) == 2
        error = json.loads(out.read_text())["error"]
        assert error["code"] == "invalid_input"
        assert "capped at N=3" in error["message"]

    @pytest.mark.parametrize("subcommand", ["compute", "sample"])
    @pytest.mark.parametrize("representation", ["dicke", "product"])
    def test_ladder_cap_covers_state_documents(
        self, subcommand, representation, tmp_path, monkeypatch
    ):
        # a small cap keeps the register small: N=5 is one level past it
        monkeypatch.setattr(cli, "MAX_LADDER_LEVELS", 5)
        out = tmp_path / "out.json"
        for n_atoms, code in ((4, 0), (5, 2)):
            if representation == "dicke":
                coeffs = [[1, 0]] + [[0, 0]] * n_atoms
            else:
                coeffs = [[[1, 0], [0, 0]]] * n_atoms
            path = write_state(tmp_path, f"n{n_atoms}.json", coeffs,
                               n_atoms=n_atoms, representation=representation)
            argv = [subcommand, "--input", path, "--output", str(out)]
            if subcommand == "sample":
                argv += ["--shots", "1000"]
            assert main(argv) == code
            doc = json.loads(out.read_text())
            if code:
                assert doc["error"]["code"] == "invalid_input"
                assert doc["error"]["message"] == (
                    "a state of 5 atoms is past the limit of 5 ladder levels"
                )

    def test_ladder_cap_covers_verify_n(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LADDER_LEVELS", 5)
        out = tmp_path / "out.json"
        argv = ["verify", "--trials", "1", "--output", str(out), "--n"]
        assert main(argv + ["4"]) == 0
        assert main(argv + ["5"]) == 2
        error = json.loads(out.read_text())["error"]
        assert error == {
            "code": "invalid_input",
            "message": "--n 5 is past the limit of 5 ladder levels",
        }

    @pytest.mark.parametrize("argv, exit_code", [
        (["verify", "--trials", "1", "--n", "3"], 0),
        (["scan", "--grid", "[]"], 2),
    ])
    def test_unwritable_output_exits_2_with_one_line(
        self, argv, exit_code, tmp_path, capsys
    ):
        target = tmp_path / "missing" / "out.json"
        assert main(argv) == exit_code
        capsys.readouterr()
        assert main(argv + ["--output", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"trispin: cannot write {target}: ")
        assert captured.err.count("\n") == 1
        assert not target.exists()

    def test_internal_faults_are_not_input_errors(self, top_state, monkeypatch):
        def fault(state):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(cli, "entanglement_s", fault)
        with pytest.raises(RuntimeError, match="internal fault"):
            main(["compute", "--input", top_state])


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(["compute", "--input", "state.json"], 0, id="compute"),
    pytest.param(["verify", "--trials", "5", "--n", "8"], 0, id="verify"),
    pytest.param(["scan", "--grid", grid_text()], 0, id="scan"),
    pytest.param(["sample", "--input", "state.json", "--shots", "1000"], 0,
                 id="sample"),
    pytest.param(["compute", "--input", "ghz.json"], 3, id="frame_undefined"),
    # refused while the rows are evaluated, after the grid has parsed
    pytest.param(["scan", "--grid", grid_text(n_atoms=2)], 2, id="invalid_input"),
])
def test_every_artifact_takes_one_envelope(argv, exit_code, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "state.json").write_bytes(state_bytes())
    (tmp_path / "ghz.json").write_bytes(
        state_bytes(coeffs=f"[[{R}, 0], [0, 0], [0, 0], [{R}, 0]]")
    )
    calls = []
    envelope = cli._envelope

    def spy(args, raw):
        calls.append(raw)
        return envelope(args, raw)

    monkeypatch.setattr(cli, "_envelope", spy)
    assert main(argv) == exit_code
    capsys.readouterr()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Fuzzed documents: JSON of any shape in any field reaches an exit code
# ---------------------------------------------------------------------------

JSON_NUMBERS = (
    st.integers(-2, 8)
    | st.integers(-(10**400), 10**400)
    | st.floats()  # NaN and the infinities included
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
FUZZ_BASES = {
    "compute": ({"n_atoms": 3, "representation": "dicke",
                 "coeffs": [[0.8, 0], [0.6, 0], [0, 0], [0, 0]]},
                {"n_atoms": 3, "representation": "product",
                 "coeffs": [[[0.8, 0], [0.6, 0]]] * 3},
                {"n_atoms": 3, "representation": "dicke",
                 "coeffs": [[R, 0], [0, 0], [0, 0], [R, 0]]}),
    "scan": ({"family": "pair_mix", "n_atoms": 3, "index_a": 0, "index_b": 1,
              "start": 0.0, "stop": 1.0, "points": 3},),
}
FUZZ_BASES["sample"] = FUZZ_BASES["compute"]


def fuzzed_text(draw, rnd, value):
    """``value`` as JSON text with itself, or one entry at any depth, replaced.

    The replacement is any JSON value, one in six a nesting on either side of
    the decoder's recursion limit and one in ten an integer literal past the
    digits ``int`` converts; half the numbers are replaced by numbers.
    """
    if isinstance(value, list) and rnd.random() < 0.5:
        entries = [json.dumps(entry) for entry in value]
        k = rnd.randrange(len(value))
        entries[k] = fuzzed_text(draw, rnd, value[k])
        return "[" + ", ".join(entries) + "]"
    kind = rnd.random()
    if isinstance(value, (int, float)) and rnd.random() < 0.5:
        return json.dumps(draw(JSON_NUMBERS))
    if kind < 1 / 6:
        depth = rnd.randint(1, 3000)
        return "[" * depth + "]" * depth
    if kind < 1 / 6 + 0.1:
        return "9" * rnd.randint(4000, 5000)
    return json.dumps(draw(JSON_VALUES))


@st.composite
def fuzzed_documents(draw, command):
    """A base document with one or two fields replaced in part or whole, or dropped.

    One document in ten is any JSON text as a whole.  What changes is chosen
    by a ``Random`` with a drawn seed, since hypothesis's own draws favour
    the first field and the first branch of a choice.
    """
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    if rnd.random() < 0.1:
        return fuzzed_text(draw, rnd, None)
    base = rnd.choice(FUZZ_BASES[command])
    changed = rnd.sample(list(base), rnd.randint(1, 2))
    fields = {}
    for key, value in base.items():
        if key not in changed:
            fields[key] = json.dumps(value)
        elif rnd.random() < 0.8:  # one changed field in five is dropped
            fields[key] = fuzzed_text(draw, rnd, value)
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


@pytest.mark.parametrize("command", ["compute", "sample", "scan"])
@settings(max_examples=70, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fuzzed_documents_reach_an_exit_code(command, data):
    # no document may end in a traceback, or in the exit code of a failed
    # verification; a refusal is an error document that parses
    text = data.draw(fuzzed_documents(command))
    if command == "scan":
        # one argument even where the text reads as an option, such as -1e+16
        argv = ["scan", f"--grid={text}"]
    else:
        argv = [command, "--input", "-"] + (["--shots", "1000"] * (command == "sample"))
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        # a small cap keeps every accepted grid small
        patch.setattr(cli, "MAX_LADDER_LEVELS", 400)
        patch.setattr("sys.stdin", io.StringIO(text))
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        error = json.loads(out.getvalue())["error"]
        assert error["code"] == ("frame_undefined" if code == 3 else "invalid_input")
        assert isinstance(error["message"], str)


def test_s_paths_never_build_2n_vectors(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("2^N vector built on an S path")

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "trispin"]
    for module in modules:
        for name in ("product_to_full", "dicke_to_full"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    r = 1 / math.sqrt(2)
    inputs = [
        write_state(tmp_path, "product.json", [[[r, 0], [0, r]]] * 4, n_atoms=4,
                    representation="product"),
        write_state(tmp_path, "dicke.json", [[0.8, 0], [0.6, 0], [0, 0], [0, 0]]),
    ]
    for path in inputs:
        assert main(["compute", "--input", path]) == 0
        assert main(["sample", "--input", path, "--shots", "2000"]) == 0
    assert main(["scan", "--grid", PAIR_MIX_GRID]) == 0
    capsys.readouterr()


S_MODULES = ("frame.py", "moments.py")
FULL_SPACE_BUILDERS = {
    "dicke_to_full", "product_to_full", "full_to_dicke", "single_atom_op",
    "collective_op", "apply_single_atom", "apply_collective",
}


@pytest.mark.parametrize("module", S_MODULES)
def test_s_modules_never_name_2n_builders(module):
    source = Path(cli.__file__).with_name(module).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
    assert not names & FULL_SPACE_BUILDERS


class TestParser:
    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--input", "state.json"],
            ["verify"],
            ["scan", "--grid", PAIR_MIX_GRID],
            ["sample", "--input", "state.json"],
        ],
    )
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_every_subcommand_takes_only_non_negative_integer_seeds(
        self, argv, seed, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--normalize"],
            ["compute", "--shots", "10"],
            ["scan", "--input", "state.json"],
            ["sample", "--grid", "{}"],
        ],
    )
    def test_options_another_subcommand_reads_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--seed", "-1"],
            ["compute", "--tolerance-rel", "0"],
            ["sample", "--shots", "10", "--grid", "{}"],
        ],
    )
    def test_parser_rejections_write_no_file_at_output(self, argv, tmp_path, capsys):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage:")
        assert not out.exists()

    def test_each_subcommand_lists_only_its_options(self):
        parser = cli.build_parser()
        subparsers = next(
            action for action in parser._actions if action.choices
        ).choices
        options = {
            name: {
                opt
                for action in sub._actions
                for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"
            }
            for name, sub in subparsers.items()
        }
        shared = {"--output", "--seed"}
        state = {"--input", "--normalize"}
        assert options == {
            "compute": shared | state,
            "verify": shared | {"--trials", "--n", "--corrupt-identity"},
            "scan": shared | {"--grid"},
            "sample": shared | state | {"--shots"},
        }

    def test_main_reuses_one_parser(self, top_state, capsys):
        main(["compute", "--input", top_state])
        first = cli._parser()
        main(["compute", "--input", top_state, "--seed", "3"])
        assert cli._parser() is first
        capsys.readouterr()
        # a reused parser still starts every call from the defaults
        main(["compute", "--input", top_state])
        assert json.loads(capsys.readouterr().out)["seed"] == 0


def test_module_runs_the_cli_and_returns_its_exit_code():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "trispin.cli", "verify", "--trials", "5",
         "--corrupt-identity", "JxJyJz"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.returncode == 1, child.stderr
    assert json.loads(child.stdout)["verification"]["passed"] is False


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random adds about 16 ms to every start; only seeded draws need it
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, trispin.cli; sys.exit('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize("argv, loaded", [
    (["compute", "--input", "state.json"], []),
    (["scan", "--grid", PAIR_MIX_GRID], []),
    (["verify", "--trials", "5"], ["trispin.verify"]),
    (["sample", "--input", "state.json", "--shots", "1000"], ["trispin.sampler"]),
], ids=["compute", "scan", "verify", "sample"])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loaded, tmp_path):
    # trispin.verify builds its 27 identity term lists when it loads
    (tmp_path / "state.json").write_bytes(state_bytes())
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, trispin.cli; code = trispin.cli.main(sys.argv[1:]); "
         "print(code, *(m for m in ('trispin.verify', 'trispin.sampler') "
         "if m in sys.modules))",
         *argv, "--output", "out.txt"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.stdout.split() == ["0", *loaded], child.stderr
