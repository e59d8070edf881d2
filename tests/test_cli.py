import json

import numpy as np
import pytest

from ctxlab.cli import main, matrix_to_json, parse_matrix
from ctxlab.errors import DomainError
from ctxlab.linalg import require_state


@pytest.fixture
def specs(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
    x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    paths = {
        "algebra": write("m2.json", {"dim": 2, "seeds": {"z": z, "x": x}}),
        "state": write("rho.json", [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),
        "projection": write("plus.json", [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]),
        "category": write(
            "cat.json",
            {
                "objects": ["a", "b"],
                "homs": [
                    {"src": "a", "dst": "a", "morphisms": ["id_a"]},
                    {"src": "b", "dst": "b", "morphisms": ["id_b"]},
                    {"src": "a", "dst": "b", "morphisms": ["f"]},
                ],
                "identities": {"a": "id_a", "b": "id_b"},
                "compose": [
                    ["id_a", "id_a", "id_a"],
                    ["id_b", "id_b", "id_b"],
                    ["f", "id_a", "f"],
                    ["id_b", "f", "f"],
                ],
            },
        ),
        "family": write(
            "family.json",
            {
                "carrier_weights": [0.25, 0.25, 0.25, 0.25],
                "state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                "groups": [
                    {
                        "A": [
                            {"type": "carrier", "values": [1, -1, 1, -1]},
                            {"type": "carrier", "values": [1, 1, -1, -1]},
                        ],
                        "B": [{"type": "carrier", "values": [1, -1, -1, 1]}],
                    }
                ],
            },
        ),
    }
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_cat_check(self, capsys, specs):
        code, out = run(capsys, ["cat-check", "--category", specs["category"]])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_cat_check_violation_exit_code(self, capsys, specs, tmp_path):
        data = json.load(open(specs["category"]))
        data["compose"] = [c for c in data["compose"] if c[:2] != ["id_b", "f"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out = run(capsys, ["cat-check", "--category", str(bad)])
        assert code == 1
        assert json.loads(out)["violations"]

    def test_limit(self, capsys, specs):
        code, out = run(capsys, ["limit", "--algebra", specs["algebra"], "--seeds", "z,x"])
        assert code == 0
        report = json.loads(out)
        assert report["carrier_points"] == 4

    def test_state_extend(self, capsys, specs):
        code, out = run(
            capsys,
            ["state-extend", "--algebra", specs["algebra"], "--seeds", "z,x", "--state", specs["state"]],
        )
        assert code == 0
        report = json.loads(out)
        assert report["max_expectation_defect"] <= 1e-8

    def test_ks_check_bundled_fixture(self, capsys):
        code, out = run(capsys, ["ks-check", "--fixture", "cabello18.json"])
        assert code == 0
        report = json.loads(out)
        assert report["sections"] == 0 and report["obstructed"] is True

    def test_daseinise(self, capsys, specs):
        code, out = run(
            capsys,
            [
                "daseinise",
                "--projection",
                specs["projection"],
                "--algebra",
                specs["algebra"],
                "--seeds",
                "z",
                "--mode",
                "outer",
            ],
        )
        assert code == 0
        result = parse_matrix(json.loads(out)["result"])
        assert np.allclose(result, np.eye(2))

    def test_net_check(self, capsys):
        code, out = run(capsys, ["net-check", "--chain", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["isotony"] and report["locality"] and report["covariance"]

    def test_gft_ccr(self, capsys):
        code, out = run(capsys, ["gft-ccr", "--m", "2", "--n", "2", "--nmax", "2", "--trials", "3"])
        assert code == 0
        assert json.loads(out)["within_1e-10"] is True

    def test_gft_weyl_sweep(self, capsys):
        code, out = run(capsys, ["gft-weyl", "--sweep", "2,3", "--sector-cap", "1"])
        assert code == 0
        defects = json.loads(out)["defects"]
        assert defects["3"] < defects["2"]

    def test_inequality_measure(self, capsys, specs):
        code, out = run(capsys, ["inequality", "--family", specs["family"], "--provider", "measure"])
        assert code == 0
        report = json.loads(out)
        assert report["classical_bound_holds"] is True
        assert report["min_lhs"] >= report["q"] - 1e-12

    def test_export_dot(self, capsys, specs):
        code, out = run(capsys, ["export-dot", "--category", specs["category"]])
        assert code == 0
        assert out.startswith("digraph") and '"a" -> "b"' in out

    def test_limit_points_and_universal(self, capsys, specs):
        code, out = run(
            capsys,
            ["--apex-bound", "2", "limit", "--algebra", specs["algebra"], "--seeds", "z,x",
             "--points", "--check-universal", "--restrictions"],
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["points"]) == report["carrier_points"] == 4
        assert report["universal"] is True
        assert report["compatible_points"] == 4

    def test_custom_net_spec(self, capsys, tmp_path):
        z0 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        z1 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
        spec = tmp_path / "net.json"
        spec.write_text(
            json.dumps(
                {
                    "length": 2,
                    "regions": [
                        {"start": 0, "stop": 0, "generators": [z0]},
                        {"start": 1, "stop": 1, "generators": [z1]},
                        {"start": 0, "stop": 1, "generators": [z0, z1]},
                    ],
                }
            )
        )
        code, out = run(capsys, ["net-check", "--net", str(spec)])
        assert code == 0
        report = json.loads(out)
        assert report["isotony"] and report["locality"]


class TestDeterminismAndErrors:
    def test_reports_byte_identical_for_same_seed(self, capsys, specs):
        _, first = run(capsys, ["--seed", "3", "state-extend", "--algebra", specs["algebra"],
                                "--seeds", "z,x", "--state", specs["state"]])
        _, second = run(capsys, ["--seed", "3", "state-extend", "--algebra", specs["algebra"],
                                 "--seeds", "z,x", "--state", specs["state"]])
        assert first == second

    def test_missing_file_exits_two(self, capsys):
        code, _ = run(capsys, ["limit", "--algebra", "no-such-file.json"])
        assert code == 2

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _ = run(capsys, ["cat-check", "--category", str(bad)])
        assert code == 2

    def test_unknown_seed_name_exits_two(self, capsys, specs):
        code, _ = run(capsys, ["limit", "--algebra", specs["algebra"], "--seeds", "nope"])
        assert code == 2

    def test_matrix_json_round_trip(self):
        m = np.array([[0.5, 1j], [-1j, 0.25]])
        assert np.allclose(parse_matrix(matrix_to_json(m)), m)

    def test_out_of_range_tolerance_exits_two(self, capsys, specs):
        code, _ = run(capsys, ["--tolerance", "1.0", "limit", "--algebra", specs["algebra"]])
        assert code == 2

    @pytest.mark.parametrize("tolerance", ["1e-16", "9.9e-14"])
    def test_tolerance_below_the_rank_floor_exits_two(self, capsys, specs, tolerance):
        code = main(["--tolerance", tolerance, "limit", "--algebra", specs["algebra"], "--seeds", "z,x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"tolerance {float(tolerance)!r} must lie in [1e-13, 1e-3]" in captured.err

    def test_tolerance_at_the_rank_floor_is_accepted(self, capsys, specs):
        code, out = run(capsys, ["--tolerance", "1e-13", "limit", "--algebra", specs["algebra"], "--seeds", "z,x"])
        assert code == 0
        assert json.loads(out)["carrier_points"] == 4
        code, out = run(capsys, ["--tolerance", "1e-13", "net-check", "--chain", "3"])
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_nonpositive_cap_exits_two(self, capsys, specs):
        code, _ = run(capsys, ["--carrier-cap", "0", "limit", "--algebra", specs["algebra"]])
        assert code == 2

    def test_max_sections_below_one_exits_two(self, capsys):
        code = main(["ks-check", "--fixture", "cabello18.json", "--max-sections", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--max-sections must be at least 1, got 0" in captured.err


class TestNetLengthCap:
    def test_chain_longer_than_the_cap_exits_two(self, capsys):
        code = main(["net-check", "--chain", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "net chain length (size 7 exceeds cap 6)" in captured.err

    def test_net_spec_longer_than_the_cap_builds_nothing(self, capsys, tmp_path, monkeypatch):
        import ctxlab.cli

        def refuse(*args, **kwargs):
            raise AssertionError("an algebra was built for a net over the cap")

        monkeypatch.setattr(ctxlab.cli, "generate_algebra", refuse)
        spec = tmp_path / "net7.json"
        z = np.diag([1.0, -1.0] * 64).tolist()
        spec.write_text(json.dumps({"length": 7, "regions": [{"start": 0, "stop": 0, "generators": [z]}]}))
        code = main(["net-check", "--net", str(spec)])
        captured = capsys.readouterr()
        assert code == 2
        assert "net chain length (size 7 exceeds cap 6)" in captured.err


class TestNetSpecRegions:
    Z0 = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()

    def write_spec(self, tmp_path, regions):
        spec = tmp_path / "net.json"
        entries = [{"start": a, "stop": b, "generators": [self.Z0]} for a, b in regions]
        spec.write_text(json.dumps({"length": 2, "regions": entries}))
        return str(spec)

    @pytest.mark.parametrize("region", [(1, 5), (-1, 0), (2, 2)])
    def test_region_outside_the_chain_exits_two(self, capsys, tmp_path, region):
        code = main(["net-check", "--net", self.write_spec(tmp_path, [(0, 0), region])])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"region [{region[0]},{region[1]}] lies outside the chain [0,1]" in captured.err

    def test_duplicate_region_exits_two(self, capsys, tmp_path):
        code = main(["net-check", "--net", self.write_spec(tmp_path, [(0, 0), (0, 1), (0, 0)])])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "region [0,0] is listed twice" in captured.err


class TestNonFiniteEntries:
    """JSON from Python may carry NaN and +-Infinity; every matrix entry
    must be refused by cell, with exit status 2, before any algebra or
    state is formed."""

    BAD = [float("nan"), float("inf"), float("-inf")]

    def refused(self, capsys, argv, cell):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"matrix entry at row {cell[0]}, column {cell[1]} is not finite" in captured.err

    @pytest.mark.parametrize("value", BAD)
    def test_state_extend(self, capsys, specs, tmp_path, value):
        state = tmp_path / "rho.json"
        state.write_text(json.dumps([[[1, 0], [0, 0]], [[0, value], [0, 0]]]))
        argv = ["state-extend", "--algebra", specs["algebra"], "--seeds", "z,x", "--state", str(state)]
        self.refused(capsys, argv, (1, 0))

    @pytest.mark.parametrize("value", BAD)
    def test_net_check_generator(self, capsys, tmp_path, value):
        z0 = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
        bad = np.diag([1.0, -1.0, 1.0, -1.0]).tolist()
        bad[2][3] = value
        spec = tmp_path / "net.json"
        spec.write_text(json.dumps({"length": 2, "regions": [
            {"start": 0, "stop": 0, "generators": [z0]},
            {"start": 1, "stop": 1, "generators": [bad]},
        ]}))
        self.refused(capsys, ["net-check", "--net", str(spec)], (2, 3))

    @pytest.mark.parametrize("value", BAD)
    def test_algebra_seed(self, capsys, tmp_path, value):
        algebra = tmp_path / "m2.json"
        algebra.write_text(json.dumps({"dim": 2, "seeds": {"z": [[1, 0], [0, value]]}}))
        self.refused(capsys, ["limit", "--algebra", str(algebra)], (1, 1))

    @pytest.mark.parametrize("value", BAD)
    def test_state_check_refuses_non_finite_entries(self, value):
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        rho[0, 1] = value
        with pytest.raises(DomainError, match="non-finite"):
            require_state(rho)


def test_importing_the_cli_loads_no_scipy():
    import os
    import subprocess
    import sys

    import ctxlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(ctxlab.__file__)))
    code = "import sys, ctxlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("tolerance", ["1e-13", "1e-3"])
class TestToleranceRangeEnds:
    """Each end of the accepted ``--tolerance`` range gives the answers of
    the default."""

    def test_limit_is_universal(self, capsys, specs, tolerance):
        code, out = run(capsys, ["--tolerance", tolerance, "limit", "--algebra", specs["algebra"], "--seeds", "z,x",
                                 "--restrictions", "--check-universal"])
        assert code == 0 and json.loads(out)["universal"] is True

    def test_state_extension_is_exact(self, capsys, specs, tolerance):
        code, out = run(capsys, ["--tolerance", tolerance, "state-extend", "--algebra", specs["algebra"],
                                 "--seeds", "z,x", "--state", specs["state"]])
        assert code == 0 and json.loads(out)["max_expectation_defect"] == 0.0

    def test_cabello18_is_obstructed(self, capsys, tolerance):
        code, out = run(capsys, ["--tolerance", tolerance, "ks-check", "--fixture", "cabello18.json"])
        assert code == 0 and json.loads(out)["obstructed"] is True

    def test_daseinise(self, capsys, specs, tolerance):
        code, out = run(capsys, ["--tolerance", tolerance, "daseinise", "--projection", specs["projection"],
                                 "--algebra", specs["algebra"], "--seeds", "z"])
        assert code == 0 and json.loads(out)["mode"] == "outer"

    def test_chain_net_satisfies_every_axiom(self, capsys, tolerance):
        code, out = run(capsys, ["--tolerance", tolerance, "net-check", "--chain", "3"])
        report = json.loads(out)
        assert code == 0 and report["violations"] == []
        assert all(report[axiom] for axiom in ("isotony", "locality", "lc_squares", "covariance"))
