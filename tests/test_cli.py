import contextlib
import copy
import functools
import io
import json
import operator
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab import cli, ctxext, realism, staralg
from ctxlab.cli import build_parser, main, matrix_to_json, parse_matrix
from ctxlab.errors import DomainError, InputError
from ctxlab.linalg import require_state
from ctxlab.locnet import pauli_string


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

    @pytest.mark.parametrize("entry", [["id_a", "ghost", "id_a"], ["f", "f", "f"]])
    @pytest.mark.parametrize("mode", ["category", "diagram", "functor"])
    def test_cat_check_stray_composite(self, capsys, specs, tmp_path, mode, entry):
        """A total composition table with one entry more, on an unknown
        morphism or a pair that does not compose: every mode reports it as
        the category's structure and stops there."""
        category = json.load(open(specs["category"]))
        category["compose"].append(entry)
        payload = {
            "category": category,
            "diagram": {"index": category, "carriers": {"a": ["x"], "b": ["y"]}, "maps": {"f": {"x": "y"}}},
            "functor": {"source": category, "target": json.load(open(specs["category"])),
                        "object_map": {"a": "a", "b": "b"}, "morphism_map": {m: m for m in ("id_a", "id_b", "f")}},
        }[mode]
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, ["cat-check", f"--{mode}", str(path)])
        message = f"composite entry ({entry[0]!r}, {entry[1]!r}) names an unknown or non-composable pair"
        assert code == 1
        assert json.loads(out) == {"check": mode, "ok": False,
                                   "violations": [{"kind": "category.structure", "message": message}]}

    @pytest.mark.parametrize("mode, message", [
        ("category", "morphisms of (a,a) must be a JSON array, got 'id_a'"),
        ("diagram", "carrier of 'a' holds ['x']"),
    ])
    def test_cat_check_refuses_labels_that_are_not_scalars(self, capsys, specs, tmp_path, mode, message):
        """A hom's morphisms given as one string, and a carrier of arrays,
        exit 2: neither is read as a list of labels."""
        category = json.load(open(specs["category"]))
        if mode == "category":
            category["homs"][0]["morphisms"] = "id_a"
            payload = category
        else:
            payload = {"index": category, "carriers": {"a": [["x"]], "b": ["y"]}, "maps": {"f": {"x": "y"}}}
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(payload))
        code = main(["cat-check", f"--{mode}", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("mode, field, message", [
        ("category", "identities", "identities holds ['id_a']"),
        ("category", "compose", "composites holds ['f']"),
        ("functor", "morphism_map", "morphism map holds ['f']"),
        ("diagram", "carriers", "diagram carriers must be a JSON object, got [['x']]"),
        ("diagram", "maps", "diagram maps must be a JSON object, got [['x']]"),
    ], ids=["identity", "composite", "morphism-map", "carriers-array", "maps-array"])
    def test_cat_check_refuses_an_array_where_a_label_belongs(self, capsys, specs, tmp_path, mode, field, message):
        """An array as an identity, a composite or a functor's image of a
        morphism exits 2: no table can key it; and so do a diagram's
        carriers or maps given as an array, not as an object."""
        category = json.load(open(specs["category"]))
        if field == "identities":
            category["identities"]["a"] = ["id_a"]
        elif field == "compose":
            category["compose"][2][2] = ["f"]
        payload = category if mode == "category" else {
            "source": category, "target": category, "object_map": {"a": "a", "b": "b"},
            "morphism_map": {"id_a": "id_a", "id_b": "id_b", "f": ["f"]}}
        if mode == "diagram":
            payload = {"index": category, "carriers": {"a": ["x"], "b": ["y"]}, "maps": {"f": {"x": "y"}}}
            payload[field] = [["x"]]
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(payload))
        code = main(["cat-check", f"--{mode}", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_cat_check_diagram_on_a_repeated_object(self, capsys, tmp_path):
        index = {"objects": ["V0", "V0"], "homs": [{"src": "V0", "dst": "V0", "morphisms": ["id_V0", "id_V0"]}],
                 "identities": {"V0": "id_V0"}, "compose": [["id_V0", "id_V0", "id_V0"]]}
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps({"index": index, "carriers": {"V0": [0, 1]}, "maps": {}}))
        code, out = run(capsys, ["cat-check", "--diagram", str(path)])
        assert code == 1
        assert json.loads(out)["violations"] == [
            {"kind": "category.structure", "message": "object 'V0' is listed more than once"}]

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

    def test_state_extend_checks_the_seeds_not_the_atoms(self, capsys, specs, monkeypatch):
        """The defect is taken on each context's unit and seeds, which no
        split builds: one that leaves a seed out of its context does not
        pass."""
        monkeypatch.setattr(staralg, "_atoms", lambda stacks, tol: [[np.eye(s.shape[-1], dtype=complex)] for s in stacks])
        code = main(["state-extend", "--algebra", specs["algebra"], "--seeds", "z,x", "--state", specs["state"]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "matrix lies outside the span of context V0" in captured.err

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

    def test_daseinise_splits_the_space_once(self, capsys, specs, monkeypatch):
        """The context holds the characters it was built from: no second
        split and no commutation test of its atoms."""
        calls = []
        for name in ("_atoms", "is_commutative"):
            def counted(*args, _name=name, _original=getattr(staralg, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(staralg, name, counted)
        for mode in ("outer", "inner"):
            code, _ = run(capsys, ["daseinise", "--projection", specs["projection"], "--algebra", specs["algebra"],
                                   "--seeds", "z", "--mode", mode])
            assert code == 0
        assert calls == ["_atoms", "_atoms"]

    def test_daseinise_refuses_non_commuting_seeds(self, capsys, specs):
        code = main(["daseinise", "--projection", specs["projection"], "--algebra", specs["algebra"], "--seeds", "z,x"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the generators do not generate a commutative algebra" in captured.err

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

    def test_text_output_is_not_an_option(self, capsys, specs):
        with pytest.raises(SystemExit) as exited:
            main(["--output", "text", "cat-check", "--category", specs["category"]])
        assert exited.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_exits_two(self, capsys):
        code, _ = run(capsys, ["limit", "--algebra", "no-such-file.json"])
        assert code == 2

    @pytest.mark.parametrize("argv, content, message", [
        (["cat-check", "--category", "{}"], "{not json", "malformed JSON in"),
        (["cat-check", "--category", "{}"], b'{"objects": ["\xff"]}', "can't decode byte 0xff in position 14"),
        (["cat-check", "--category", "{}"], "[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
        (["cat-check", "--category", "{}"], None, "Is a directory"),
        (["ks-check", "--fixture", "nope/"], None, "no file 'nope/' and no bundled fixture ''"),
        (["ks-check", "--fixture", "mine.json"], None, "no file 'mine.json' and no bundled fixture 'mine.json'"),
        (["limit", "--algebra", "{}"], {"dim": 2, "seeds": [[[1, 0], [0, -1]]]},
         "algebra spec seeds must be a JSON object"),
        (["state-extend", "--state", "unread.json", "--algebra", "{}"], {"dim": 2, "seeds": [[[1, 0], [0, -1]]]},
         "algebra spec seeds must be a JSON object"),
        (["daseinise", "--projection", "unread.json", "--algebra", "{}"], {"dim": 2, "seeds": [[[1, 0], [0, -1]]]},
         "algebra spec seeds must be a JSON object"),
        (["limit", "--algebra", "{}"], {"dim": 2, "seeds": [[[1, 0], [0, -1]]] * 10_000},
         "algebra spec seeds must be a JSON object, got [[[1, 0], [0, -1]], [[1, 0], [0, -1]], "),
        (["inequality", "--provider", "measure", "--family", "{}"], {"groups": [5], "carrier_weights": [1]},
         "group 0 must be a JSON object, got 5"),
        (["inequality", "--provider", "measure", "--family", "{}"], {"groups": [{"A": [7]}], "carrier_weights": [1]},
         "observable 0 of side A of group 0 must be a JSON object, got 7"),
        (["inequality", "--provider", "measure", "--family", "{}"],
         {"groups": [{"A": [{"type": "x" * 10_000, "values": [1, -1]}]}], "carrier_weights": [1]},
         "unknown observable type 'xxxxxxxxxx"),
    ], ids=["syntax", "not-utf8", "deep-nest", "directory", "bundled-directory", "bundled-missing",
            "limit-seeds-array", "state-extend-seeds-array", "daseinise-seeds-array", "long-seeds-array",
            "group-not-object",
            "observable-not-object", "long-observable-type"])
    def test_malformed_json_exits_two(self, capsys, tmp_path, argv, content, message):
        """An input file that is not JSON, not UTF-8, nested past the
        parser's depth, a directory, or whose JSON has the wrong shape, exits
        2 with one short error line naming the file or the field, however
        long the offending value; ``{}`` stands for the file, or for the
        directory when there is no content."""
        path = tmp_path / "input.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = [str(path if content is not None else tmp_path) if a == "{}" else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err and len(captured.err) < 500

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
        import ctxlab.locnet

        def refuse(*args, **kwargs):
            raise AssertionError("an algebra was built for a net over the cap")

        monkeypatch.setattr(ctxlab.locnet, "region_algebra", refuse)
        spec = tmp_path / "net7.json"
        z = np.diag([1.0, -1.0] * 64).tolist()
        spec.write_text(json.dumps({"length": 7, "regions": [{"start": 0, "stop": 0, "generators": [z]}]}))
        code = main(["net-check", "--net", str(spec)])
        captured = capsys.readouterr()
        assert code == 2
        assert "net chain length (size 7 exceeds cap 6)" in captured.err


class TestGftArguments:
    """A gft run that would test nothing, or whose Fock space is over the
    cap, is refused with exit status 2, naming the value."""

    def refused(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_ccr_trials_below_one(self, capsys, trials):
        self.refused(capsys, ["gft-ccr", "--trials", trials], f"--trials must be at least 1, got {trials}")

    def test_weyl_negative_sector_cap(self, capsys):
        self.refused(capsys, ["gft-weyl", "--sector-cap", "-1", "--sweep", "2,3"],
                     "sector cap must be nonnegative, got -1")

    @pytest.mark.parametrize("norm", ["0", "-0.5", "nan", "inf"])
    def test_weyl_norm_not_positive_and_finite(self, capsys, norm):
        self.refused(capsys, ["gft-weyl", "--norm", norm], f"--norm must be positive and finite, got {float(norm)!r}")

    @pytest.mark.parametrize("argv, message", [
        (["gft-ccr", "--m", "2", "--n", "20", "--nmax", "0", "--trials", "20"], "no sector below the cutoff to test"),
        (["gft-weyl", "--m", "2", "--n", "20", "--nmax", "4"],
         "Fock dimension (size 50372389536173258440705 exceeds cap 10000)"),
        (["gft-weyl", "--m", "2", "--n", "20", "--nmax", "0"], "sector cap must stay below the occupation cutoff"),
    ])
    def test_refused_before_any_test_function_is_drawn(self, capsys, monkeypatch, argv, message):
        """A mode space of 2**20 modes takes 16 MB per drawn function."""
        def refuse(*args):
            raise AssertionError("a test function was drawn")

        monkeypatch.setattr(cli, "_random_function", refuse)
        self.refused(capsys, argv, message)

    def test_fock_dimension_over_the_cap_returns_at_once(self, capsys):
        start = time.perf_counter()
        self.refused(capsys, ["gft-ccr", "--m", "4", "--n", "4", "--nmax", "5"],
                     "Fock dimension (size 9711475137 exceeds cap 10000)")
        assert time.perf_counter() - start < 1.0


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

    def test_generator_of_the_wrong_size_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "net.json"
        entries = [{"start": 0, "stop": 0, "generators": [self.Z0]},
                   {"start": 1, "stop": 1, "generators": [self.Z0, [[1, 0], [0, -1]]]}]
        spec.write_text(json.dumps({"length": 2, "regions": entries}))
        code = main(["net-check", "--net", str(spec)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: net spec {str(spec)!r}: generator 1 of region [1,1] is 2x2, expected 4x4\n"


def leaking_net_spec(path, u=None) -> str:
    """A three-site net spec of Pauli strings whose site 0 also holds X on
    site 2, which anticommutes with site 2's Z; with a unitary ``u``, every
    generator is conjugated by it, which keeps every commutation."""
    strings = {(0, 0): [{0: "Z"}, {2: "X"}], (1, 1): [{1: "X"}], (2, 2): [{2: "Z"}]}
    strings[(0, 1)] = strings[(0, 0)] + strings[(1, 1)]
    strings[(1, 2)] = strings[(1, 1)] + strings[(2, 2)]
    strings[(0, 2)] = strings[(0, 1)] + strings[(2, 2)]
    u = np.eye(8) if u is None else u

    def generator(labels):
        return matrix_to_json(u @ pauli_string(labels, 3) @ u.conj().T)

    regions = [{"start": a, "stop": b, "generators": [generator(g) for g in gens]} for (a, b), gens in strings.items()]
    path.write_text(json.dumps({"length": 3, "regions": regions}))
    return str(path)


class TestPauliNetSpecs:
    def test_a_rotated_spec_gives_the_same_verdicts_and_clashes(self, capsys, tmp_path):
        from conftest import random_unitary
        from ctxlab import cli, linalg, locnet

        exact = leaking_net_spec(tmp_path / "pauli.json")
        rotated = leaking_net_spec(tmp_path / "rotated.json", random_unitary(np.random.default_rng(11), 8))
        for path, kind in ((exact, True), (rotated, False)):
            net = cli.load_net_spec(path, linalg.DEFAULT_TOL)
            assert all(isinstance(net.algebra(r), locnet.PauliAlgebra) == kind for r in net.regions())
        reports = []
        for path in (exact, rotated):
            code, out = run(capsys, ["net-check", "--net", path])
            assert code == 1
            reports.append(json.loads(out))
        for key in ("isotony", "locality", "lc_squares"):
            assert reports[0][key] == reports[1][key]
        clashes = [sorted({tuple(re.findall(r"of (\[\d,\d\])", v)) for v in r["violations"]}) for r in reports]
        assert clashes[0] == clashes[1] == [("[0,0]", "[1,2]"), ("[0,0]", "[2,2]"), ("[0,1]", "[2,2]")]
        assert reports[0]["violations"] != reports[1]["violations"]

    def test_a_pauli_spec_loads_without_a_dense_closure(self, monkeypatch, tmp_path):
        from ctxlab import cli, linalg, locnet

        def refuse(*args, **kwargs):
            raise AssertionError("a dense closure or span reduction ran on a Pauli spec")

        for module, name in ((locnet, "generate_algebra"), (staralg, "generate_algebra"),
                             (staralg, "orthonormalize_span"), (linalg, "orthonormalize_span")):
            monkeypatch.setattr(module, name, refuse)
        net = cli.load_net_spec(leaking_net_spec(tmp_path / "pauli.json"), linalg.DEFAULT_TOL)
        assert all(isinstance(net.algebra(r), locnet.PauliAlgebra) for r in net.regions())
        assert not locnet.check_locality(net).ok

    def test_a_rotated_spec_keeps_a_generator_far_smaller_than_another(self, tmp_path):
        """``1e4 X0`` and ``Z0`` in a random frame generate all of site 0, 4
        dimensions, also at the largest tolerance, where the relative rank
        test once dropped ``Z0``."""
        from conftest import random_unitary
        from ctxlab import cli, locnet

        u = random_unitary(np.random.default_rng(7), 4)
        gens = [u @ g @ u.conj().T for g in (1e4 * pauli_string({0: "X"}, 2), pauli_string({0: "Z"}, 2))]
        spec = tmp_path / "scaled.json"
        spec.write_text(json.dumps({"length": 2, "regions": [
            {"start": 0, "stop": 0, "generators": [matrix_to_json(g) for g in gens]}]}))
        net = cli.load_net_spec(str(spec), 1e-3)
        region = locnet.Region(0, 0)
        assert not isinstance(net.algebra(region), locnet.PauliAlgebra)
        assert net.algebra(region).dimension == 4


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


class TestBooleanEntries:
    """Python reads JSON ``true`` and ``false`` as 1 and 0; a boolean matrix
    entry, bare or inside an [re, im] pair, is refused by cell with exit
    status 2, and so is a boolean or non-finite ray coordinate."""

    def refused(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_parse_matrix(self):
        with pytest.raises(InputError, match="row 0, column 0 is a boolean"):
            parse_matrix([[True, False], [False, True]])
        with pytest.raises(InputError, match="row 1, column 0 is a boolean"):
            parse_matrix([[[1, 0], [0, 0]], [[0, False], [1, 0]]])

    @pytest.mark.parametrize("cell", [True, [0, False]], ids=["bare", "pair"])
    def test_state_extend(self, capsys, specs, tmp_path, cell):
        state = tmp_path / "rho.json"
        state.write_text(json.dumps([[[1, 0], [0, 0]], [cell, [0, 0]]]))
        argv = ["state-extend", "--algebra", specs["algebra"], "--seeds", "z,x", "--state", str(state)]
        self.refused(capsys, argv, "matrix entry at row 1, column 0 is a boolean")

    @pytest.mark.parametrize("cell", [False, [True, 0]], ids=["bare", "pair"])
    def test_net_check_generator(self, capsys, tmp_path, cell):
        z0 = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
        bad = np.diag([1.0, -1.0, 1.0, -1.0]).tolist()
        bad[2][3] = cell
        spec = tmp_path / "net.json"
        spec.write_text(json.dumps({"length": 2, "regions": [
            {"start": 0, "stop": 0, "generators": [z0]},
            {"start": 1, "stop": 1, "generators": [bad]},
        ]}))
        self.refused(capsys, ["net-check", "--net", str(spec)], "matrix entry at row 2, column 3 is a boolean")

    def test_ks_check_boolean_rays(self, capsys, tmp_path):
        fixture = tmp_path / "rays.json"
        fixture.write_text(json.dumps({"dim": 2, "bases": [[[True, False], [False, True]]]}))
        message = "basis 0, vector 0 of the ray fixture has a boolean"
        self.refused(capsys, ["ks-check", "--fixture", str(fixture)], message)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_ks_check_non_finite_rays(self, capsys, tmp_path, value):
        fixture = tmp_path / "rays.json"
        fixture.write_text(json.dumps({"dim": 2, "bases": [[[1, 0], [0, 1]], [[1, 1], [1, value]]]}))
        message = "basis 1, vector 1 of the ray fixture has a non-finite"
        self.refused(capsys, ["ks-check", "--fixture", str(fixture)], message)


class TestIntegersBeyondTheFloatRange:
    """JSON integers have no size limit; one too large for a float is
    refused with exit status 2 where it stands, not with a traceback."""

    HUGE = 10**400

    def refused(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    def test_carrier_weight(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"groups": [{"A": [{"type": "carrier", "values": [1, -1]}], "B": []}],
                                    "carrier_weights": [0.5, self.HUGE]}))
        self.refused(capsys, ["inequality", "--family", str(path), "--provider", "measure"],
                     "carrier weight 1 is an integer beyond the float range")

    @pytest.mark.parametrize("cell", [HUGE, [0, -HUGE]], ids=["bare", "pair"])
    def test_state_entry(self, capsys, specs, tmp_path, cell):
        state = tmp_path / "rho.json"
        state.write_text(json.dumps([[[1, 0], [0, 0]], [cell, [0, 0]]]))
        argv = ["state-extend", "--algebra", specs["algebra"], "--seeds", "z,x", "--state", str(state)]
        self.refused(capsys, argv, "matrix entry at row 1, column 0 is an integer beyond the float range")


class TestInequalityMeasures:
    """A measure family whose weights or carrier values are not numbers,
    not finite, negative or all zero is refused with exit status 2 before
    any weight is normalised: no such family reports a bound."""

    FAMILY = {"groups": [{"A": [{"type": "carrier", "values": [1, -1]}], "B": []}]}

    def refused(self, capsys, tmp_path, family, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family))  # Python writes NaN as a bare NaN token
        code = main(["inequality", "--family", str(path), "--provider", "measure"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("weights, message", [
        ([0.5, float("nan")], "measure weights must be finite"),
        ([0.0, 0.0], "measure weights must have a positive total"),
        ([-1, -3], "measure weights must be nonnegative"),
        ([True, 1], "carrier weight 0 is not a number: True"),
    ], ids=["nan", "zero", "negative", "boolean"])
    def test_carrier_weights(self, capsys, tmp_path, weights, message):
        self.refused(capsys, tmp_path, {**self.FAMILY, "carrier_weights": weights}, message)

    @pytest.mark.parametrize("values, message", [
        ([1, float("nan")], "carrier observable must take values +1 or -1"),
        ([True, -1], "carrier observable value 0 is not a number: True"),
    ], ids=["nan", "boolean"])
    def test_carrier_values(self, capsys, tmp_path, values, message):
        family = {"groups": [{"A": [{"type": "carrier", "values": values}], "B": []}], "carrier_weights": [1, 1]}
        self.refused(capsys, tmp_path, family, message)


def test_importing_the_cli_loads_no_scipy():
    """The CLI imports scipy only when a command needs it, and then only
    ``scipy.sparse``: a gft-weyl run loads neither ``scipy.sparse.linalg``
    nor ``scipy.linalg``."""
    import os
    import subprocess
    import sys

    import ctxlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(ctxlab.__file__)))
    code = ("import contextlib, io, sys, ctxlab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert ctxlab.cli.main(['gft-weyl', '--sweep', '2,3']) == 0\n"
            "print([m for m in ('scipy.sparse', 'scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split("\n")[:2] == ["[]", "['scipy.sparse']"]


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


class TestSpecNumbers:
    """Sizes and indices of JSON specs are whole numbers: a fraction, a
    string, a boolean or a size below 1 is refused, naming the field and
    the value, with exit status 2."""

    def refused(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("dim", [2.7, "2", 0, -2, True, None])
    def test_algebra_spec_dim(self, capsys, tmp_path, dim):
        spec = tmp_path / "alg.json"
        spec.write_text(json.dumps({"dim": dim, "seeds": {"z": [[1, 0], [0, -1]]}}))
        self.refused(capsys, ["limit", "--algebra", str(spec)],
                     f"algebra spec dim must be a whole number of at least 1, got {dim!r}")

    @pytest.mark.parametrize("dim", [2.5, "2", 0, False])
    def test_ray_fixture_dim(self, capsys, tmp_path, dim):
        fixture = tmp_path / "rays.json"
        fixture.write_text(json.dumps({"dim": dim, "bases": [[[1, 0], [0, 1]]]}))
        self.refused(capsys, ["ks-check", "--fixture", str(fixture)],
                     f"ray fixture dim must be a whole number of at least 1, got {dim!r}")

    @pytest.mark.parametrize("length", [2.9, -1, 0, "2", True])
    def test_net_spec_length(self, capsys, tmp_path, length):
        spec = tmp_path / "net.json"
        z0 = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
        spec.write_text(json.dumps({"length": length, "regions": [{"start": 0, "stop": 0, "generators": [z0]}]}))
        self.refused(capsys, ["net-check", "--net", str(spec)],
                     f"net spec length must be a whole number of at least 1, got {length!r}")

    @pytest.mark.parametrize("field, value", [("start", True), ("start", 0.5), ("stop", "1"), ("stop", 1.5)])
    def test_net_spec_region_ends(self, capsys, tmp_path, field, value):
        spec = tmp_path / "net.json"
        z0 = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
        region = {"start": 0, "stop": 1, "generators": [z0]}
        region[field] = value
        spec.write_text(json.dumps({"length": 2, "regions": [region]}))
        message = f"net spec {field} must be a whole number, got {value!r}"
        self.refused(capsys, ["net-check", "--net", str(spec)], message)

    def test_whole_floats_are_read_as_ints(self, capsys, tmp_path):
        spec = tmp_path / "alg.json"
        spec.write_text(json.dumps({"dim": 2.0, "seeds": {"z": [[1, 0], [0, -1]]}}))
        code, out = run(capsys, ["limit", "--algebra", str(spec)])
        assert code == 0 and json.loads(out)["carrier_points"] == 2

    def test_dimension_above_the_cap(self, capsys, tmp_path):
        spec = tmp_path / "alg.json"
        spec.write_text(json.dumps({"dim": 20, "seeds": {"one": np.eye(20).tolist()}}))
        self.refused(capsys, ["limit", "--algebra", str(spec)], "matrix dimension 20 exceeds cap 16")
        fixture = tmp_path / "rays.json"
        fixture.write_text(json.dumps({"dim": 20, "bases": [np.eye(20).tolist()]}))
        self.refused(capsys, ["ks-check", "--fixture", str(fixture)], "matrix dimension 20 exceeds cap 16")

    def test_dimension_far_above_the_cap_is_refused_before_the_ambient_is_made(self, capsys, tmp_path):
        spec = tmp_path / "alg.json"
        spec.write_text(json.dumps({"dim": 100000, "seeds": {}}))
        self.refused(capsys, ["limit", "--algebra", str(spec)], "matrix dimension 100000 exceeds cap 16")


PAULI1 = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}


@pytest.fixture
def families(tmp_path):
    """Ray fixtures of Peres sub-families, a two-qubit Pauli algebra spec, a
    spec whose seeds are the rays of a Peres sub-family, a state and the
    projection onto a Bell vector."""
    from ctxlab.fixtures import peres24_fixture

    bases = peres24_fixture()["bases"]

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def matrix(m):
        return matrix_to_json(np.asarray(m, dtype=complex))

    rays = [np.asarray(r, dtype=float) / np.linalg.norm(r) for i in (0, 1) for r in bases[i]]
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.05
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    return {
        "peres01": write("peres01.json", {"dim": 4, "bases": [bases[0], bases[1]]}),
        "peres014": write("peres014.json", {"dim": 4, "bases": [bases[i] for i in (0, 1, 4)]}),
        "pauli": write("pauli.json", {"dim": 4, "seeds": {
            a + b: matrix(np.kron(PAULI1[a], PAULI1[b])) for a in "IXYZ" for b in "IXYZ" if a + b != "II"}}),
        "rays": write("rays.json", {"dim": 4, "seeds": {f"r{k}": matrix(np.outer(r, r)) for k, r in enumerate(rays)}}),
        "state": write("rho4.json", matrix(rho)),
        "bell": write("bell.json", matrix(np.outer(bell, bell))),
    }


class TestGoldenReports:
    """Reports that hold only integers, booleans and messages, pinned byte
    for byte: the character order depends on no frame and no seed, and a
    Pauli net's rows are its strings in a fixed order, so they are the same
    on every LAPACK build.  A change of the report format must update them."""

    @staticmethod
    def text(report: dict) -> str:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_cabello18(self, capsys):
        code, out = run(capsys, ["ks-check", "--fixture", "cabello18.json"])
        assert code == 0
        assert out == self.text({"assignments": [], "bases": 9, "contexts": 28, "dim": 4, "obstructed": True,
                                 "section_limit": 1000, "sections": 0})

    def test_peres_pair(self, capsys, families):
        code, out = run(capsys, ["ks-check", "--fixture", families["peres01"]])
        assert code == 0
        assignments = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 2, 1, 2), (0, 3, 2, 3)]
        ids = ("I", "V0", "V0^V1", "V1")
        assert out == self.text({"assignments": [dict(zip(ids, a)) for a in assignments], "bases": 2, "contexts": 4,
                                 "dim": 4, "obstructed": False, "section_limit": 1000, "sections": 6})

    def test_peres_triple(self, capsys, families):
        code, out = run(capsys, ["ks-check", "--fixture", families["peres014"]])
        assert code == 0
        ids = ("I", "V0", "V0^V1", "V0^V2", "V1", "V1^V2", "V2")
        assignments = [
            (0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0), (0, 1, 0, 1, 0, 0, 2), (0, 1, 0, 1, 1, 0, 2),
            (0, 2, 1, 2, 2, 1, 1), (0, 2, 1, 2, 2, 1, 3), (0, 3, 2, 2, 3, 1, 1), (0, 3, 2, 2, 3, 1, 3),
        ]
        assert out == self.text({"assignments": [dict(zip(ids, a)) for a in assignments], "bases": 3, "contexts": 7,
                                 "dim": 4, "obstructed": False, "section_limit": 1000, "sections": 8})

    def test_leaking_pauli_net(self, capsys, tmp_path):
        # rows in "IXYZ" order: [0,0] is III, IIX, ZII, ZIX; [0,1] adds X1;
        # [1,2] is III, IIZ, IXI, IXZ and [2,2] is III, IIZ
        code, out = run(capsys, ["net-check", "--net", leaking_net_spec(tmp_path / "pauli.json")])
        assert code == 1
        pairs = [(1, "[0,0]", 1, "[1,2]"), (1, "[0,0]", 3, "[1,2]"), (3, "[0,0]", 1, "[1,2]"), (3, "[0,0]", 3, "[1,2]"),
                 (1, "[0,0]", 1, "[2,2]"), (3, "[0,0]", 1, "[2,2]"), (1, "[0,1]", 1, "[2,2]"), (3, "[0,1]", 1, "[2,2]"),
                 (5, "[0,1]", 1, "[2,2]"), (7, "[0,1]", 1, "[2,2]")]
        violations = [f"[net.locality] basis elements {a} of {left} and {b} of {right} do not commute"
                      for a, left, b, right in pairs]
        assert out == self.text({"chain": 3, "isotony": True, "lc_squares": True, "locality": False, "regions": 6,
                                 "violations": violations})

    @pytest.mark.parametrize("seeds, mode, diagonal", [
        ("ZZ,XX", "outer", None), ("ZZ,XX", "inner", None), ("ZI,IZ", "outer", [1.0, 0.0, 0.0, 1.0]),
        ("ZI,IZ", "inner", [0.0] * 4), ("ZZ", "outer", [1.0, 0.0, 0.0, 1.0]), ("ZZ", "inner", [0.0] * 4),
    ])
    def test_daseinise(self, capsys, families, seeds, mode, diagonal):
        """The Bell projection is an atom of the ZZ, XX context, and lies
        across two atoms of the others; the same bytes at every seed, since
        a zero that rounding leaves signed is written 0.0."""
        if diagonal is None:
            rows = [[0.5, 0.0, 0.0, 0.5], [0.0] * 4, [0.0] * 4, [0.5, 0.0, 0.0, 0.5]]
        else:
            rows = [[diagonal[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
        expected = self.text({"context_seeds": seeds.split(","), "mode": mode,
                              "result": [[[v, 0.0] for v in row] for row in rows]})
        for seed in ("0", "5"):
            code, out = run(capsys, ["--seed", seed, "daseinise", "--projection", families["bell"],
                                     "--algebra", families["pauli"], "--seeds", seeds, "--mode", mode])
            assert code == 0 and out == expected

    def test_limit_with_restrictions(self, capsys, families):
        code, out = run(capsys, ["limit", "--algebra", families["pauli"], "--seeds", "ZI,XI,IZ",
                                 "--restrictions", "--check-universal"])
        assert code == 0
        assert out == self.text({"apex_bound": 4, "carrier_points": 32, "compatible_points": 8,
                                 "contexts": {"I": 1, "V0": 4, "V0^V1": 2, "V1": 4}, "seeds": ["ZI", "XI", "IZ"],
                                 "universal": True})


class TestFrameIndependence:
    """Reports depend neither on the frame of any span nor on ``--seed``:
    ``orthonormalize_span`` returning ``U @ rows`` for a random unitary U,
    which spans the same space, changes no report byte, and neither does
    another seed."""

    def argvs(self, families):
        return [
            ["ks-check", "--fixture", "cabello18.json"],
            ["ks-check", "--fixture", families["peres014"]],
            ["limit", "--algebra", families["pauli"], "--seeds", "ZI,XI,IZ,IX,ZZ", "--restrictions",
             "--check-universal"],
            ["limit", "--algebra", families["rays"], "--restrictions"],
            ["state-extend", "--algebra", families["pauli"], "--seeds", "ZI,XI,IZ,IX", "--state", families["state"]],
            ["state-extend", "--algebra", families["rays"], "--state", families["state"]],
            ["daseinise", "--projection", families["bell"], "--algebra", families["rays"], "--seeds", "r0,r1,r2,r3"],
            ["daseinise", "--projection", families["bell"], "--algebra", families["rays"], "--seeds", "r4,r5",
             "--mode", "inner"],
        ]

    def test_rotated_span_frames(self, capsys, monkeypatch, families):
        from conftest import random_unitary
        from ctxlab import linalg, staralg

        expected = [run(capsys, argv) for argv in self.argvs(families)]
        rng = np.random.default_rng(3)
        original = linalg.orthonormalize_span

        def rotated(mats, tol=linalg.DEFAULT_TOL):
            rows = original(mats, tol)
            return random_unitary(rng, len(rows)) @ rows if len(rows) else rows

        for module in (linalg, staralg):
            monkeypatch.setattr(module, "orthonormalize_span", rotated)
        assert staralg.generate_algebra([PAULI1["Z"]], 2).ortho.tolist() != original([np.eye(2), PAULI1["Z"]]).tolist()
        assert [run(capsys, argv) for argv in self.argvs(families)] == expected

    def test_seeds(self, capsys, families):
        for argv in self.argvs(families):
            assert run(capsys, ["--seed", "0", *argv]) == run(capsys, ["--seed", "5", *argv])


@pytest.mark.parametrize("dest, cap", [("carrier_cap", ctxext.CARRIER_CAP), ("sign_cap", realism.SIGN_SEARCH_CAP)])
def test_cap_options_default_to_the_library_caps(dest, cap):
    """Each cap is written once, in its library module."""
    args = build_parser().parse_args(["cat-check", "--category", "category.json"])
    assert getattr(args, dest) == cap


class TestReportWriting:
    """Reports go to stdout in pieces, with no second copy of a long one,
    and a reader that stops early ends the run quietly."""

    def test_closed_stdout_exits_quietly(self, families):
        import os
        import subprocess
        import sys

        import ctxlab

        src = os.path.dirname(os.path.dirname(os.path.abspath(ctxlab.__file__)))
        # about 650 kB of point records, far more than a pipe holds
        argv = ["limit", "--algebra", families["pauli"], "--seeds", "ZI,XI,IZ,IX", "--points"]
        proc = subprocess.Popen([sys.executable, "-m", "ctxlab.cli", *argv], env={**os.environ, "PYTHONPATH": src},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.read(16) == b'{\n  "carrier_poi'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err and "BrokenPipeError" not in err and err == ""

    def test_state_extend_peak_memory(self, families):
        """The five-seed two-qubit family: a 131,072-point carrier, whose
        state-extend report takes 2.6 MB; json.dumps(indent=2) peaked at
        18 MB on it."""
        import contextlib
        import os
        import tracemalloc

        argv = ["state-extend", "--algebra", families["pauli"], "--seeds", "ZI,XI,YI,IZ,IX",
                "--state", families["state"]]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 12 * 2**20



SUBCOMMANDS = {"cat-check", "limit", "state-extend", "ks-check", "daseinise", "net-check", "gft-ccr", "gft-weyl",
               "inequality", "export-dot"}
JSON_OPTIONS = {"--fixture", "--algebra", "--state", "--projection", "--net", "--family", "--category", "--functor",
                "--diagram"}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, repository_root):
    """(argv, {argv index of a JSON input: its value}) of valid runs of
    every subcommand that reads JSON: the bundled cabello18, both benchmark
    workloads at their tiny size, and a category, functor, diagram and
    daseinise projection."""
    from conftest import perfbench_module
    from ctxlab.fincat import poset_category
    from ctxlab.presheaf import bundled_fixture
    from ctxlab.validation import load_json

    out = tmp_path_factory.mktemp("valid")
    workloads = perfbench_module("workloads")
    argvs = [c["argv"] for w in ("ks-carrier", "net-fock") for c in workloads.build(w, 3, "tiny", str(out))]
    cat = poset_category(["a", "b"], lambda x, y: x <= y)
    category = {"objects": cat.objects, "identities": cat.identities,
                "homs": [{"src": s, "dst": d, "morphisms": ms} for (s, d), ms in cat.homs.items()],
                "compose": [[g, f, gf] for (g, f), gf in cat.compose.items()]}
    maps = {m: {"0": 0, "1": 0} for m, _, _ in cat.arrows()}
    maps.update({cat.identities["a"]: {"0": 0, "1": 1}, cat.identities["b"]: {"0": 0}})
    files = {
        "category": category,
        "functor": {"source": category, "target": category, "object_map": {"a": "a", "b": "b"},
                    "morphism_map": {m: m for m in cat.morphisms()}},
        "diagram": {"index": category, "carriers": {"a": [0, 1], "b": [0]}, "maps": maps},
        "algebra": {"dim": 2, "seeds": {"z": [[1, 0], [0, -1]], "x": [[0, 1], [1, 0]]}},
        "projection": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
    }
    for name, value in files.items():
        workloads.write_json(str(out / f"{name}.json"), value)
    argvs += [["ks-check", "--fixture", "cabello18.json"]] + [
        ["cat-check", f"--{mode}", str(out / f"{mode}.json")] for mode in ("category", "functor", "diagram")] + [
        ["export-dot", "--category", str(out / "category.json")],
        ["daseinise", "--algebra", str(out / "algebra.json"), "--projection", str(out / "projection.json")]]
    cases = []
    for argv in argvs:
        inputs = {k + 1: json.loads(f"[{argv[k + 1]}]") for k, a in enumerate(argv) if a == "--sweep"}
        inputs.update({k + 1: bundled_fixture(argv[k + 1]) if argv[k + 1] == "cabello18.json" else
                       load_json(argv[k + 1]) for k, a in enumerate(argv) if a in JSON_OPTIONS})
        if inputs:
            cases.append((argv, inputs))
    assert {next(a for a in argv if a in SUBCOMMANDS) for argv, _ in cases} == SUBCOMMANDS - {"gft-ccr"}
    return cases


class TestMalformedInputs:
    """One JSON node of a valid input changed or deleted, or the input file
    made unreadable: every subcommand exits 0, 1 or 2 and raises nothing
    else.  Exit 1 comes only after a whole report whose verdict is false,
    exit 2 with exactly one ``error:`` line.  gft-ccr reads no JSON, and
    gft-weyl's ``--sweep`` is mutated as the items of a JSON array."""

    DEEP = 200_000  # array levels, far past the JSON parser's recursion limit
    NEST = "\x00nest"  # stands for the deep nest until the input is written
    DELETE = "\x00delete"
    REPLACEMENTS = ["x", True, None, 2.5, -3, 10**400, float("nan"), float("inf"), float("-inf"), [], {},
                    functools.reduce(lambda inner, _: [inner], range(40), 1), NEST, DELETE]
    UNREADABLE = ["directory", "not UTF-8", "trailing slash"]
    # exit 1 means violations found: the verdict each such report shows
    VERDICTS = {
        "cat-check": lambda r: r["ok"],
        "limit": lambda r: r.get("universal", True),
        "state-extend": lambda r: r["max_expectation_defect"] <= cli.STATE_EXTEND_BOUND,
        "net-check": lambda r: not r["violations"],
    }

    def mutated(self, value, path, replacement):
        """``value`` with the node at ``path`` replaced, or deleted; a
        deleted root is None."""
        if not path:
            return None if replacement == self.DELETE else replacement
        value = copy.deepcopy(value)
        parent = functools.reduce(operator.getitem, path[:-1], value)
        if replacement == self.DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        return value

    def text(self, value, sweep: bool) -> str:
        """The JSON text of ``value``; a sweep's array without its brackets."""
        if value is None:
            return ""
        text = ",".join(map(json.dumps, value)) if sweep and isinstance(value, list) else json.dumps(value)
        return text.replace(json.dumps(self.NEST), "[" * self.DEEP + "]" * self.DEEP)

    def check(self, argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            return
        assert err == ""
        subcommand = next(a for a in argv if a in SUBCOMMANDS)
        if subcommand != "export-dot":
            report = json.loads(out)
            assert code == 0 or subcommand in self.VERDICTS and not self.VERDICTS[subcommand](report)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_malformed_input_exits_cleanly(self, valid_inputs, data, tmp_path_factory):
        argv, inputs = data.draw(st.sampled_from(valid_inputs), label="case")
        k = data.draw(st.sampled_from(sorted(inputs)), label="input")
        argv, value, sweep = list(argv), inputs[k], argv[k - 1] == "--sweep"
        scratch = tmp_path_factory.mktemp("mutated")
        unreadable = None if sweep else data.draw(st.sampled_from([None, None, None, *self.UNREADABLE]))
        if unreadable == "trailing slash":
            argv[k] += "/"
        elif unreadable == "directory":
            argv[k] = str(scratch)
        elif unreadable == "not UTF-8":
            (scratch / "input.json").write_bytes(b'{"dim": "\xff"}')
            argv[k] = str(scratch / "input.json")
        else:
            # a walk from the root that stops at each node with even odds,
            # so the structure that readers take apart is hit most often
            path, node = (), value
            while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
                path += (data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node)))),)
                node = node[path[-1]]
            text = self.text(self.mutated(value, path, data.draw(st.sampled_from(self.REPLACEMENTS))), sweep)
            if sweep:
                argv[k - 1:k + 1] = [f"--sweep={text}"]  # a cutoff may start with "-"
            else:
                (scratch / "input.json").write_text(text)
                argv[k] = str(scratch / "input.json")
        self.check(argv)
