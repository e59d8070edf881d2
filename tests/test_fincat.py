import itertools
import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leg_labels
from ctxlab.errors import InputError
from ctxlab.fincat import (
    Cone,
    Diagram,
    FinCategory,
    Functor,
    category_from_json,
    category_to_dot,
    check_category,
    check_cone,
    check_diagram,
    check_functor,
    check_universal_property,
    cone_from_legs,
    diagram_from_json,
    discrete_category,
    enumerate_cones,
    functor_from_json,
    limit_of_diagram,
    poset_category,
)


def one_object_category():
    return FinCategory(
        objects=["*"],
        homs={("*", "*"): ["id"]},
        compose={("id", "id"): "id"},
        identities={"*": "id"},
    )


def parallel_pair(f_map, g_map, src_carrier, dst_carrier):
    """Index shape with two parallel arrows s -> t and its concrete diagram."""
    idx = FinCategory(
        objects=["s", "t"],
        homs={("s", "s"): ["id_s"], ("t", "t"): ["id_t"], ("s", "t"): ["f", "g"]},
        compose={
            ("id_s", "id_s"): "id_s",
            ("id_t", "id_t"): "id_t",
            ("f", "id_s"): "f",
            ("id_t", "f"): "f",
            ("g", "id_s"): "g",
            ("id_t", "g"): "g",
        },
        identities={"s": "id_s", "t": "id_t"},
    )
    return Diagram(idx, {"s": src_carrier, "t": dst_carrier}, {"f": f_map, "g": g_map})


def located(report) -> list:
    """A report's violations as (kind, message) pairs, in report order."""
    return [(v.kind, v.message) for v in report.violations]


def oracle_limit(d: Diagram) -> set:
    """Brute force over the full product of carriers, no backtracking."""
    objects = list(d.index.objects)
    idents = set(d.index.identities.values())
    arrows = [
        (d.map_of(m), objects.index(src), objects.index(dst))
        for m, (src, dst) in d.index.morphisms().items()
        if m not in idents
    ]
    families = set()
    for combo in itertools.product(*[d.carriers[o] for o in objects]):
        if all(table[combo[i]] == combo[j] for table, i, j in arrows):
            families.add(combo)
    return families


class TestCheckCategory:
    def test_one_object_valid(self):
        assert check_category(one_object_category()).ok

    def test_poset_is_category(self):
        cat = poset_category(["V1", "V2"], lambda a, b: a == b or (a, b) == ("V1", "V2"))
        assert check_category(cat).ok

    def test_composite_in_wrong_homset_reported(self):
        cat = poset_category(["a", "b", "c"], lambda x, y: x <= y)
        cat.compose[("b<=c", "a<=b")] = "b<=c"  # lands in hom(b, c), not hom(a, c)
        report = check_category(cat)
        assert not report.ok
        assert any("category.structure" == v.kind and "'b<=c'" in v.message for v in report.violations)

    def test_missing_composite_reported(self):
        cat = poset_category(["a", "b", "c"], lambda x, y: x <= y)
        del cat.compose[("b<=c", "a<=b")]
        report = check_category(cat)
        assert any(v.kind == "category.structure" and "missing composite" in v.message for v in report.violations)

    def test_broken_identity_law(self):
        cat = FinCategory(
            objects=["a"],
            homs={("a", "a"): ["id", "f"]},
            compose={("id", "id"): "id", ("f", "id"): "id", ("id", "f"): "f", ("f", "f"): "f"},
            identities={"a": "id"},
        )
        report = check_category(cat)
        assert any(v.kind == "category.identity" for v in report.violations)

    def test_poset_with_a_repeated_element_refused_by_name(self):
        with pytest.raises(InputError, match="'V0' is listed more than once"):
            poset_category(["V0", "V1", "V0"], lambda a, b: a == b)

    def test_poset_asks_leq_once_per_ordered_pair(self):
        asked = []

        def leq(a, b):
            asked.append((a, b))
            return a <= b

        cat = poset_category([0, 1, 2, 3], leq)
        assert sorted(asked) == list(itertools.product(range(4), repeat=2))
        assert check_category(cat).ok and len(cat.compose) == 20

    def test_repeated_object_reported_once_by_name(self):
        """The category that ``poset_category(["V0", "V0"], eq)`` built
        before it refused repeats: four ``id_V0`` arrows in one hom set."""
        cat = FinCategory(
            objects=["V0", "V0", "V0"],
            homs={("V0", "V0"): ["id_V0"] * 9},
            compose={("id_V0", "id_V0"): "id_V0"},
            identities={"V0": "id_V0"},
        )
        report = check_category(cat)
        assert [(v.kind, v.message) for v in report.violations] == [
            ("category.structure", "object 'V0' is listed more than once")
        ]


    def test_left_identity_law_located(self):
        cat = FinCategory(
            objects=["a", "b"],
            homs={("a", "a"): ["id_a"], ("b", "b"): ["id_b"], ("a", "b"): ["f", "g"]},
            compose={("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("f", "id_a"): "f",
                     ("g", "id_a"): "g", ("id_b", "f"): "g", ("id_b", "g"): "g"},
            identities={"a": "id_a", "b": "id_b"},
        )
        assert located(check_category(cat)) == [("category.identity", "id_b o 'f' != 'f'")]

    def test_associativity_located(self):
        """A one-object table with two-sided identity whose x(xx) is x and (xx)x is y."""
        cat = FinCategory(
            objects=["*"],
            homs={("*", "*"): ["id", "x", "y"]},
            compose={("id", m): m for m in ("id", "x", "y")} | {(m, "id"): m for m in ("x", "y")}
            | {("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "y", ("y", "y"): "y"},
            identities={"*": "id"},
        )
        assert ("category.assoc", "h='x' g='x' f='x': 'x' != 'y'") in located(check_category(cat))
        assert {kind for kind, _ in located(check_category(cat))} == {"category.assoc"}


class TestCheckFunctor:
    def test_identity_functor(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        f = Functor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms()})
        assert check_functor(f).ok

    def test_constant_functor(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        point = one_object_category()
        f = Functor(cat, point, {o: "*" for o in cat.objects}, {m: "id" for m in cat.morphisms()})
        assert check_functor(f).ok

    def test_broken_composite_listed(self):
        cat = poset_category(["a", "b", "c"], lambda x, y: x <= y)
        f = Functor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms()})
        f.morphism_map["a<=c"] = "id_a"  # mistyped image breaks g o f
        report = check_functor(f)
        assert not report.ok
        assert any("a<=c" in v.message for v in report.violations)

    def test_composition_of_valid_functors_is_valid(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        point = one_object_category()
        f = Functor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms()})
        g = Functor(cat, point, {o: "*" for o in cat.objects}, {m: "id" for m in cat.morphisms()})
        g_after_f = Functor(
            cat,
            point,
            {o: g.object_map[v] for o, v in f.object_map.items()},
            {m: g.morphism_map[v] for m, v in f.morphism_map.items()},
        )
        assert check_functor(g_after_f).ok


    def identity_functor(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        return Functor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms()})

    def test_unmapped_object_located(self):
        f = self.identity_functor()
        del f.object_map["b"]
        assert ("functor.structure", "object 'b' unmapped") in located(check_functor(f))

    def test_object_outside_the_target_located(self):
        f = self.identity_functor()
        f.object_map["b"] = "z"
        assert ("functor.structure", "object 'b' maps outside the target") in located(check_functor(f))

    def test_unmapped_morphism_located(self):
        f = self.identity_functor()
        del f.morphism_map["a<=b"]
        assert located(check_functor(f)) == [("functor.structure", "morphism 'a<=b' unmapped")]

    def test_identity_not_preserved_located(self):
        """The identity sent to an idempotent x: every composite still holds."""
        monoid = FinCategory(["*"], {("*", "*"): ["id", "x"]},
                             {("id", "id"): "id", ("id", "x"): "x", ("x", "id"): "x", ("x", "x"): "x"}, {"*": "id"})
        f = Functor(monoid, monoid, {"*": "*"}, {"id": "x", "x": "x"})
        assert located(check_functor(f)) == [("functor.identity", "identity of '*' not preserved")]

    def test_composite_not_preserved_located(self):
        """The group of order two onto an idempotent: x x = id, but y y = y."""
        group = FinCategory(["*"], {("*", "*"): ["id", "x"]},
                            {("id", "id"): "id", ("id", "x"): "x", ("x", "id"): "x", ("x", "x"): "id"}, {"*": "id"})
        monoid = FinCategory(["*"], {("*", "*"): ["id", "y"]},
                             {("id", "id"): "id", ("id", "y"): "y", ("y", "id"): "y", ("y", "y"): "y"}, {"*": "id"})
        f = Functor(group, monoid, {"*": "*"}, {"id": "id", "x": "y"})
        assert located(check_functor(f)) == [("functor.compose", "composite ('x', 'x') not preserved")]


class TestCheckDiagram:
    def arrow(self, carriers, maps):
        return Diagram(poset_category(["s", "t"], lambda a, b: a <= b), carriers, maps)

    def test_a_carrier_that_repeats_an_element_is_refused_by_name(self):
        """A carrier is a set: listed twice, ``x`` was one family twice in the limit."""
        with pytest.raises(InputError, match=re.escape("carrier of 'a' lists 'x' more than once")):
            Diagram(discrete_category(["a"]), {"a": ["x", "x"]})
        with pytest.raises(InputError, match=re.escape("carrier of 't' lists 1 more than once")):
            self.arrow({"s": [0], "t": [1, 2, 1.0]}, {"s<=t": {0: 1}})

    def test_missing_carrier_located(self):
        d = self.arrow({"s": [0]}, {"s<=t": {0: "x"}})
        assert located(check_diagram(d)) == [("diagram.structure", "object 't' has no carrier")]

    def test_missing_map_located(self):
        d = self.arrow({"s": [0], "t": ["x"]}, {})
        assert located(check_diagram(d)) == [("diagram.structure", "morphism 's<=t' has no map")]

    def test_map_undefined_on_an_element_located(self):
        d = self.arrow({"s": [0, 1], "t": ["x"]}, {"s<=t": {0: "x"}})
        assert located(check_diagram(d)) == [("diagram.structure", "map of 's<=t' undefined on 1")]

    def test_map_outside_the_carrier_located(self):
        d = self.arrow({"s": [0, 1], "t": ["x"]}, {"s<=t": {0: "x", 1: "y"}})
        assert located(check_diagram(d)) == [("diagram.structure", "map of 's<=t' sends 1 outside carrier of 't'")]

    def test_identity_that_moves_an_element_located(self):
        d = self.arrow({"s": [0, 1], "t": ["x"]}, {"s<=t": {0: "x", 1: "x"}, "id_s": {0: 1, 1: 0}})
        assert ("diagram.identity", "identity of 's' moves 0") in located(check_diagram(d))
        assert {kind for kind, _ in located(check_diagram(d))} == {"diagram.identity", "diagram.compose"}

    def test_a_map_between_large_carriers_is_checked_in_linear_time(self):
        """Each map is checked against one set of its codomain, so an
        identity between two 20,000-element carriers takes well under 2 s."""
        carrier = list(range(20_000))
        d = self.arrow({"s": carrier, "t": carrier}, {"s<=t": {x: x for x in carrier}})
        start = time.monotonic()
        assert check_diagram(d).ok
        assert time.monotonic() - start <= 2.0

    def test_a_discrete_diagram_with_its_identities_left_out_is_checked_in_linear_time(self):
        """Each identity left out of ``maps`` is read from one map table, so
        6,000 objects take well under 2 s; a morphism table built per
        identity looked up took 51 s."""
        objects = [f"o{k}" for k in range(6_000)]
        index = FinCategory(objects, {(o, o): [f"id_{o}"] for o in objects},
                            {(f"id_{o}", f"id_{o}"): f"id_{o}" for o in objects}, {o: f"id_{o}" for o in objects})
        d = Diagram(index, {o: [o] for o in objects})
        start = time.monotonic()
        assert check_diagram(d).ok
        assert time.monotonic() - start <= 2.0


class TestLimits:
    def test_discrete_product_count(self):
        d = Diagram(discrete_category(["p", "q"]), {"p": [0, 1], "q": ["x", "y", "z"]})
        cone = limit_of_diagram(d)
        assert len(cone.apex) == 6
        assert check_cone(cone, d).ok

    def test_equalizer_agreeing_on_one_point(self):
        d = parallel_pair({1: 1, 2: 2, 3: 1}, {1: 2, 2: 2, 3: 2}, [1, 2, 3], [1, 2])
        assert check_diagram(d).ok
        cone = limit_of_diagram(d)
        assert oracle_limit(d) == set(cone.apex)
        assert {fam[0] for fam in cone.apex} == {2}

    def test_everywhere_disagreeing_pair_gives_empty_apex(self):
        d = parallel_pair({1: 1, 2: 1}, {1: 2, 2: 2}, [1, 2], [1, 2])
        cone = limit_of_diagram(d)
        assert cone.apex == []
        assert oracle_limit(d) == set()
        assert check_cone(cone, d).ok

    @settings(max_examples=25, deadline=None)
    @given(
        f_vals=st.lists(st.integers(0, 1), min_size=3, max_size=3),
        g_vals=st.lists(st.integers(0, 1), min_size=3, max_size=3),
    )
    def test_limit_matches_oracle_on_random_parallel_pairs(self, f_vals, g_vals):
        d = parallel_pair(
            dict(enumerate(f_vals)), dict(enumerate(g_vals)), [0, 1, 2], [0, 1]
        )
        cone = limit_of_diagram(d)
        assert set(cone.apex) == oracle_limit(d)
        assert check_cone(cone, d).ok

    def test_single_object_diagram_any_leg_is_cone(self):
        d = Diagram(discrete_category(["o"]), {"o": ["a", "b"]})
        cone = cone_from_legs(d, [0, 1], {"o": {0: "b", 1: "a"}})
        assert cone.legs.tolist() == [[1], [0]]
        assert check_cone(cone, d).ok

    def test_missing_leg_is_structural(self):
        d = Diagram(discrete_category(["p", "q"]), {"p": [0], "q": [0]})
        with pytest.raises(InputError, match=re.escape("missing leg at 'q'")):
            cone_from_legs(d, [0], {"p": {0: 0}})

    def test_leg_outside_its_codomain_located(self):
        d = Diagram(discrete_category(["o"]), {"o": ["a"]})
        with pytest.raises(InputError, match=re.escape("leg at 'o' sends 0 outside its codomain")):
            cone_from_legs(d, [0], {"o": {0: "z"}})

    def test_legs_into_apex_variance(self):
        """Legs run from the apex into the diagram, and a cone has no other
        variance: tables written from the carriers into the apex are not
        legs, and a cone takes no ``to_apex`` flag."""
        idx = poset_category(["s", "t"], lambda a, b: a <= b)
        d = Diagram(idx, {"s": [0, 1], "t": ["x"]}, {"s<=t": {0: "x", 1: "x"}})
        with pytest.raises(InputError, match=re.escape("leg at 's' undefined on 'a'")):
            cone_from_legs(d, ["a"], {"s": {0: "a", 1: "a"}, "t": {"x": "a"}})
        out_of = cone_from_legs(d, ["a", "b"], {"s": {"a": 0, "b": 1}, "t": {"a": "x", "b": "x"}})
        assert check_cone(out_of, d).ok
        with pytest.raises(TypeError):
            Cone(apex=["a"], legs=out_of.legs, to_apex=True)

    @pytest.mark.parametrize("legs, message", [
        ({"o": {0: 0}}, "legs are not a 2 x 2 table of carrier positions"),
        ([[0, 0], [0, 0]], "legs are not a 2 x 2 table of carrier positions"),
        (np.zeros((2, 2)), "legs are not a 2 x 2 table of carrier positions"),
        (np.zeros((2, 3), dtype=int), "legs are not a 2 x 2 table of carrier positions"),
        (np.array([[0, 2], [-1, 0]]), "leg at 'p' sends 'b' to position -1, off its carrier"),
    ])
    def test_a_table_that_does_not_fit_is_structural(self, legs, message):
        """A hand-built cone is checked, never refused: a table of the wrong
        type or shape, or a position outside its carrier, is reported."""
        d = Diagram(discrete_category(["p", "q"]), {"p": [0], "q": [0, 1, 2]})
        found = located(check_cone(Cone(apex=["a", "b"], legs=legs), d))
        assert found[0] == ("cone.structure", message) and {kind for kind, _ in found} == {"cone.structure"}

    def test_partial_map_is_a_triangle_failure(self):
        # D(s<=t) is undefined on 1: a leg through 1 satisfies nothing
        idx = poset_category(["s", "t"], lambda a, b: a <= b)
        d = Diagram(idx, {"s": [0, 1], "t": ["x"]}, {"s<=t": {0: "x"}})
        bad = cone_from_legs(d, [0], {"s": {0: 1}, "t": {0: "x"}})
        assert [v.kind for v in check_cone(bad, d).violations] == ["cone.triangle"]
        assert check_cone(cone_from_legs(d, [0], {"s": {0: 0}, "t": {0: "x"}}), d).ok
        cones = enumerate_cones(d, 1)
        assert [leg_labels(d, c) for c in cones] == [{"s": {}, "t": {}}, {"s": {0: 0}, "t": {0: "x"}}]
        assert [c.legs.tolist() for c in cones] == [[], [[0, 0]]]
        lim = limit_of_diagram(d)
        assert lim.apex == [(0, "x")]
        assert check_universal_property(lim, d, cones)


    def test_an_undefined_value_is_not_none(self):
        """A map undefined on ``x`` fails the triangle even where the
        target carrier holds None, in the limit as in the join."""
        idx = poset_category(["s", "t"], lambda a, b: a <= b)
        d = Diagram(idx, {"s": ["x"], "t": [None]}, {"s<=t": {}})
        assert limit_of_diagram(d).apex == [] and enumerate_cones(d, 1)[1:] == []
        d = Diagram(idx, {"s": ["x"], "t": [None]}, {"s<=t": {"x": None}})
        assert limit_of_diagram(d).apex == [("x", None)]


class TestUniversalProperty:
    def test_limit_is_universal(self):
        d = parallel_pair({1: 1, 2: 2, 3: 1}, {1: 2, 2: 2, 3: 2}, [1, 2, 3], [1, 2])
        cone = limit_of_diagram(d)
        assert check_universal_property(cone, d, enumerate_cones(d, 2))

    def test_padded_candidate_fails_uniqueness(self):
        d = Diagram(discrete_category(["p", "q"]), {"p": [0, 1], "q": [0, 1]})
        lim = limit_of_diagram(d)
        legs = leg_labels(d, lim)
        padded = cone_from_legs(d, list(lim.apex) + ["pad"],
                                {o: {**legs[o], "pad": legs[o][lim.apex[0]]} for o in ["p", "q"]})
        assert check_cone(padded, d).ok
        cones = enumerate_cones(d, 2)
        assert check_universal_property(lim, d, cones)
        assert not check_universal_property(padded, d, cones)

    def test_empty_diagram_terminal_object(self):
        d = Diagram(FinCategory([], {}, {}, {}), {})
        candidate = cone_from_legs(d, ["*"], {})
        assert check_universal_property(candidate, d, [cone_from_legs(d, [0, 1], {})])

    def test_ten_element_limit_against_a_nine_element_cone(self):
        """10**9 maps from the cone's apex, which a search over them would
        refuse: element i maps to the family (i,) alone, so the limit is
        universal, and a padded copy of (0,) gives element 0 two images."""
        d = Diagram(discrete_category(["p"]), {"p": list(range(10))})
        lim = limit_of_diagram(d)
        big = cone_from_legs(d, list(range(9)), {"p": {i: i for i in range(9)}})
        assert check_cone(big, d).ok
        assert check_universal_property(lim, d, [big])
        padded = cone_from_legs(d, lim.apex + ["pad"], {"p": {**leg_labels(d, lim)["p"], "pad": 0}})
        assert check_cone(padded, d).ok
        assert not check_universal_property(padded, d, [big])


def category_spec(c: FinCategory) -> dict:
    """The category in the JSON format that ``cat-check`` reads, through a
    JSON text."""
    return json.loads(json.dumps({
        "objects": c.objects,
        "homs": [{"src": src, "dst": dst, "morphisms": labels} for (src, dst), labels in c.homs.items()],
        "identities": c.identities,
        "compose": [[g, f, gf] for (g, f), gf in c.compose.items()],
    }))


class TestSerialization:
    def test_category_json_round_trip(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        again = category_from_json(category_spec(cat))
        assert check_category(again).ok
        assert again == cat

    def test_malformed_category_json(self):
        with pytest.raises(InputError):
            category_from_json({"objects": ["a"]})

    @pytest.mark.parametrize("field, value, message", [
        ("objects", "ab", "objects must be a JSON array, got 'ab'"),
        ("morphisms", "id_a", "morphisms of (a,a) must be a JSON array, got 'id_a'"),
        ("morphisms", [["id_a"]], "morphisms of (a,a) holds ['id_a']"),
    ])
    def test_a_string_or_array_label_is_refused(self, field, value, message):
        spec = category_spec(poset_category(["a"], lambda x, y: True))
        if field == "objects":
            spec["objects"] = value
        else:
            spec["homs"][0]["morphisms"] = value
        with pytest.raises(InputError, match=re.escape(message)):
            category_from_json(spec)

    @pytest.mark.parametrize("carriers, maps, message", [
        ({"a": [[1, 2], [3]]}, {}, "carrier of 'a' holds [1, 2]"),
        ({"a": "xy"}, {}, "carrier of 'a' must be a JSON array, got 'xy'"),
        ({"a": ["1"]}, {"id_a": {"1": ["1"]}}, "map of 'id_a' holds ['1']"),
        ({"a": ["1", 2]}, {"id_a": {"1": "1", "2": 2}}, "map of 'id_a' has string keys, but carrier of 'a' holds 2"),
        ({"a": ["x", "y", "x"]}, {}, "carrier of 'a' lists 'x' more than once"),
    ])
    def test_array_elements_of_a_diagram_are_refused(self, carriers, maps, message):
        spec = {"index": category_spec(poset_category(["a"], lambda x, y: True)), "carriers": carriers, "maps": maps}
        with pytest.raises(InputError, match=re.escape(message)):
            diagram_from_json(spec)

    def test_a_map_of_an_unknown_label_or_onto_a_missing_carrier_is_left_to_the_check(self):
        """Only a listed map's source carrier must hold strings: a map of no
        morphism, or of one whose source has no carrier, is read as it is."""
        index = category_spec(poset_category(["a"], lambda x, y: True))
        d = diagram_from_json({"index": index, "carriers": {"a": [1]}, "maps": {"g": {"1": 1}}})
        assert check_diagram(d).ok
        d = diagram_from_json({"index": index, "carriers": {}, "maps": {"id_a": {"1": 1}}})
        assert located(check_diagram(d)) == [("diagram.structure", "object 'a' has no carrier")]

    def test_functor_json_round_trip(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        f = Functor(cat, cat, {o: o for o in cat.objects}, {m: m for m in cat.morphisms()})
        spec = {"source": category_spec(cat), "target": category_spec(cat),
                "object_map": f.object_map, "morphism_map": f.morphism_map}
        again = functor_from_json(json.loads(json.dumps(spec)))
        assert check_functor(again).ok
        assert again == f

    def test_diagram_json_round_trip(self):
        d = parallel_pair({"1": "1", "2": "2"}, {"1": "1", "2": "2"}, ["1", "2"], ["1", "2"])
        spec = {"index": category_spec(d.index), "carriers": d.carriers, "maps": d.maps}
        again = diagram_from_json(json.loads(json.dumps(spec)))
        assert check_diagram(again).ok
        assert again == d
        assert len(limit_of_diagram(again).apex) == 2

    def test_dot_export_mentions_arrows(self):
        cat = poset_category(["a", "b"], lambda x, y: x <= y)
        text = category_to_dot(cat)
        assert '"a" -> "b"' in text and "digraph" in text