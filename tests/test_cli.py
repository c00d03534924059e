import hashlib
import json
import math
import re
import sys

import pytest

from trispin import cli
from trispin.cli import main
from trispin.moments import route_deviation

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

    def test_tolerance_abs_reaches_route_check(self, pinned_state, tmp_path):
        docs = {}
        for floor in ("1e-12", "10.0"):
            out = tmp_path / f"out{floor}.json"
            argv = ["compute", "--input", pinned_state, "--output", str(out)]
            assert main(argv + ["--tolerance-abs", floor]) == 0
            docs[floor] = json.loads(out.read_text())
        for floor, doc in docs.items():
            routes = doc["report"]["routes"]
            expected = max(
                route_deviation(routes["direct"][a], routes["sum"][a], 1e-9, float(floor))
                for a in ("xp", "yp")
            )
            assert doc["route_check"]["max_rel_dev"] == expected
        # the report itself does not depend on the tolerances
        assert docs["1e-12"]["report"] == docs["10.0"]["report"]

    def test_reads_state_from_stdin(self, top_state, monkeypatch, capsys):
        import io

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


class TestParser:
    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_reuses_one_parser(self, top_state, capsys):
        main(["compute", "--input", top_state])
        first = cli._parser()
        main(["compute", "--input", top_state, "--seed", "3"])
        assert cli._parser() is first
        capsys.readouterr()
        # a reused parser still starts every call from the defaults
        main(["compute", "--input", top_state])
        assert json.loads(capsys.readouterr().out)["seed"] == 0
