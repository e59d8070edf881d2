import collections
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SZ, random_unitary
from ctxlab import locnet
from ctxlab.ctxext import CARRIER_CAP
from ctxlab.errors import DomainError
from ctxlab.linalg import DEFAULT_TOL, opnorm
from ctxlab.locnet import (
    LocalNet,
    PauliAlgebra,
    Region,
    _pauli_terms,
    check_covariance,
    check_isotony,
    check_lc_square,
    check_locality,
    composite_context,
    pauli_string,
    region_algebras,
    shifted_region,
    site_operator,
    spectrum_multiplicativity,
    standard_net,
    standard_region_algebra,
    translation_unitary,
)
from ctxlab.staralg import (
    MatrixStarAlgebra,
    algebra_span_equal,
    algebra_span_leq,
    context_algebra,
    generate_algebra,
    gelfand_spectrum,
    is_commutative,
)


def site_context(site: int, length: int, single=SZ):
    op = site_operator(single, site, length)
    return generate_algebra([op], 2**length, dim_cap=2**length)


def single_site_family(length: int):
    return [
        (r, site_context(r.start, length))
        for r in standard_net(length).regions()
        if r.start == r.stop
    ]


class TestAxioms:
    def test_single_region_net_valid(self):
        region = Region(0, 0)
        net = LocalNet(2, {region: standard_region_algebra(region, 2)})
        assert check_isotony(net).ok
        assert check_locality(net).ok

    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_standard_net_isotony_and_locality(self, length):
        net = standard_net(length)
        assert check_isotony(net).ok
        assert check_locality(net).ok

    def test_five_site_chain_exhaustive(self):
        net = standard_net(5)
        assert check_isotony(net).ok
        assert check_locality(net).ok

    def test_corrupted_isotony_reported(self):
        net = standard_net(2)
        corrupted = dict(net.assignment)
        corrupted[Region(0, 1)] = standard_region_algebra(Region(1, 1), 2)
        bad = LocalNet(2, corrupted, builder=net.builder)
        report = check_isotony(bad)
        assert any(v.kind == "net.isotony" and "[0,0]" in v.message for v in report.violations)

    def test_operator_leaking_across_the_cut_reported(self):
        net = standard_net(2)
        corrupted = dict(net.assignment)
        leak = pauli_string({0: "X", 1: "X"}, 2) / 2.0
        eye = np.eye(4, dtype=complex) / 2.0
        corrupted[Region(0, 0)] = MatrixStarAlgebra(4, [eye, leak])
        bad = LocalNet(2, corrupted, builder=net.builder)
        report = check_locality(bad)
        assert any(v.kind == "net.locality" for v in report.violations)


def looped_locality(net):
    """Violation messages of a per-pair commutator loop, row-major per region pair."""
    out = []
    regions = net.regions()
    for i, left in enumerate(regions):
        for right in regions[i + 1 :]:
            if not left.disjoint(right):
                continue
            for ai, a in enumerate(net.algebra(left).basis):
                for bi, b in enumerate(net.algebra(right).basis):
                    if opnorm(a @ b - b @ a) > net.tol:
                        out.append(
                            f"[net.locality] basis elements {ai} of {left.label()} "
                            f"and {bi} of {right.label()} do not commute"
                        )
    return out


@st.composite
def pauli_nets(draw, frames=True):
    """Nets on 2-4 sites whose regions are generated by drawn Pauli strings;
    a leak puts a string on a site outside its region.  Unrotated regions
    take the exact builder (``region_algebras``) and hold ``PauliAlgebra``s.
    With ``frames``, a drawn set of regions has its generators conjugated by
    one random unitary, which keeps every commutation among them and makes
    the entries inexact, so those regions take the dense closure."""
    length = draw(st.integers(2, 4))
    seed = draw(st.none() | st.integers(0, 2**16)) if frames else None
    u = np.eye(2**length) if seed is None else random_unitary(np.random.default_rng(seed), 2**length)
    assignment = {}
    for a in range(length):
        for b in range(a, length):
            region = Region(a, b)
            strings = draw(
                st.lists(
                    st.dictionaries(st.sampled_from(list(region.sites())), st.sampled_from("XYZ"), min_size=1),
                    min_size=1,
                    max_size=4,
                )
            )
            if draw(st.booleans()) and length > b - a + 1:
                outside = [s for s in range(length) if s not in region.sites()]
                strings.append({draw(st.sampled_from(outside)): draw(st.sampled_from("XYZ"))})
            gens = [pauli_string(labels, length) for labels in strings]
            if seed is not None and draw(st.booleans()):
                gens = [u @ g @ u.conj().T for g in gens]
            assignment[region] = region_algebras([gens], length)[0]
    return LocalNet(length, assignment)


def count_dense_calls(monkeypatch) -> list:
    """Record the (left, right) stacks of every dense commutation test."""
    calls = []

    def recording(a, b, tol):
        calls.append((np.asarray(a, dtype=complex).tobytes(), np.asarray(b, dtype=complex).tobytes()))
        return dense(a, b, tol)

    dense = locnet.commuting
    monkeypatch.setattr(locnet, "commuting", recording)
    return calls


def stacked(net, region) -> bytes:
    return np.stack(net.algebra(region).basis).tobytes()


class TestLocalityOracle:
    @settings(max_examples=40, deadline=None)
    @given(pauli_nets())
    def test_blas_check_matches_pairwise_loop(self, net):
        assert [str(v) for v in check_locality(net).violations] == looped_locality(net)

    def test_leak_reported_in_loop_order(self):
        net = standard_net(3)
        corrupted = dict(net.assignment)
        corrupted[Region(0, 0)] = MatrixStarAlgebra(8, [pauli_string({2: "X"}, 3) / np.sqrt(8)])
        bad = LocalNet(3, corrupted)
        found = [str(v) for v in check_locality(bad).violations]
        assert found and found == looped_locality(bad)

    @settings(max_examples=40, deadline=None)
    @given(pauli_nets(frames=False))
    def test_string_nets_match_pairwise_loop(self, net):
        assert all(isinstance(net.algebra(r), PauliAlgebra) for r in net.regions())
        assert [str(v) for v in check_locality(net).violations] == looped_locality(net)

    @pytest.mark.parametrize("tol", [1e-9, 1e-5])
    @pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0, 16.0])
    def test_off_support_mass_on_both_sides_of_the_bound(self, tol, factor):
        """Site 0 holds s (X0 + eta Z1) / 2, whose Z1 part anticommutes with
        site 1's X1.  With 2 s eta placed at ``factor * tol / 2``, the
        commutator, s eta / 2, exceeds ``tol`` only for factor 16."""
        scale = 32.0
        eta = factor * tol / (4 * scale)
        eye, x0, z1, x1 = (pauli_string(labels, 2) / 2.0 for labels in ({}, {0: "X"}, {1: "Z"}, {1: "X"}))
        assignment = {
            Region(0, 0): MatrixStarAlgebra(4, [eye, scale * (x0 + eta * z1)], tol),
            Region(1, 1): MatrixStarAlgebra(4, [eye, x1], tol),
        }
        net = LocalNet(2, assignment, tol=tol)
        found = [str(v) for v in check_locality(net).violations]
        assert found == looped_locality(net)
        assert bool(found) == (factor > 8)

    @settings(max_examples=40, deadline=None)
    @given(pauli_nets())
    def test_pairs_without_strings_take_the_dense_path(self, net):
        """Every disjoint pair of which one region holds no strings (a
        rotated one) is formed densely, in loop order, and no other pair
        is."""
        with pytest.MonkeyPatch.context() as patch:
            calls = count_dense_calls(patch)
            check_locality(net)
        expected = []
        regions = net.regions()
        for i, left in enumerate(regions):
            for right in regions[i + 1 :]:
                if left.disjoint(right) and (net.support(left) is None or net.support(right) is None):
                    expected.append((stacked(net, left), stacked(net, right)))
        assert calls == expected

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_batched_bases_equal_kron_chains(self, length):
        norm = np.sqrt(2**length)
        for region in standard_net(length).regions():
            combos = itertools.product("IXYZ", repeat=region.stop - region.start + 1)
            chains = [pauli_string(dict(zip(region.sites(), c)), length) / norm for c in combos]
            basis = standard_region_algebra(region, length).basis
            assert len(basis) == len(chains)
            assert all(np.array_equal(b, c) for b, c in zip(basis, chains))


class TestCompositeContexts:
    def test_single_part_reproduces_itself(self):
        net = standard_net(2)
        ctx = site_context(0, 2)
        comp = composite_context(net, [(Region(0, 0), ctx)])
        assert comp.dimension == ctx.dimension

    def test_two_disjoint_parts_multiply(self):
        net = standard_net(2)
        za = site_context(0, 2, SZ)
        xb = site_context(1, 2, SX)
        comp = composite_context(net, [(Region(0, 0), za), (Region(1, 1), xb)])
        assert is_commutative(comp)
        assert comp.dimension == 4
        count, expected = spectrum_multiplicativity(
            net, [(Region(0, 0), za), (Region(1, 1), xb)]
        )
        assert count == expected == 4

    def test_overlapping_regions_rejected(self):
        net = standard_net(2)
        ctx = site_context(0, 2)
        with pytest.raises(DomainError, match="causally separated"):
            composite_context(net, [(Region(0, 0), ctx), (Region(0, 1), ctx)])

    def test_composite_characters_are_value_pairs(self):
        net = standard_net(2)
        za = site_context(0, 2, SZ)
        zb = site_context(1, 2, SZ)
        comp = composite_context(net, [(Region(0, 0), za), (Region(1, 1), zb)])
        z0 = site_operator(SZ, 0, 2)
        z1 = site_operator(SZ, 1, 2)
        pairs = sorted(
            (round(c.value_of(z0).real), round(c.value_of(z1).real))
            for c in gelfand_spectrum(comp)
        )
        assert pairs == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


class TestCovariance:
    def test_zero_shift_identity(self):
        net = standard_net(3)
        assert check_covariance(net, 0, single_site_family(3)).ok

    @pytest.mark.parametrize("shift", [1, 2])
    def test_cyclic_shifts_on_invariant_family(self, shift):
        net = standard_net(3)
        assert check_covariance(net, shift, single_site_family(3)).ok

    def test_orphan_context_named(self):
        net = standard_net(3)
        family = single_site_family(3)[:2]  # drop site 2: not translation closed
        report = check_covariance(net, 1, family)
        assert any("orphan" in v.message for v in report.violations)

    def test_a_character_without_a_unique_translate_is_located(self, monkeypatch):
        """Were every translated atom within the threshold of every atom of
        its target, no character would have a unique translate."""
        monkeypatch.setattr(locnet, "opnorm", lambda m: 0.0)
        report = check_covariance(standard_net(2), 1, single_site_family(2))
        assert [(v.kind, v.message) for v in report.violations] == [
            ("net.covariance", f"character {i} of the context at {r} has no unique translate")
            for r in ("[0,0]", "[1,1]") for i in (0, 1)]

    def test_a_failed_extension_automorphism_is_located(self, monkeypatch):
        """Were every character's translate read off by one, the permuted
        carrier would not intertwine the embeddings."""
        original, calls = locnet._readings, []

        def off_on_the_translate(chars, m):
            calls.append(m)
            return original(chars, m) + (len(calls) % 2 == 0)

        monkeypatch.setattr(locnet, "_readings", off_on_the_translate)
        report = check_covariance(standard_net(2), 1, single_site_family(2))
        assert [(v.kind, v.message) for v in report.violations] == [
            ("net.covariance", f"extension automorphism fails on basis element {b} of context at {r}")
            for r in ("[0,0]", "[1,1]") for b in (0, 1)]

    def test_a_family_past_the_carrier_cap_is_checked(self):
        """One context per interval of a 6-site chain (``Z_a`` on ``[a,a]``,
        ``Z_a Z_b`` on ``[a,b]``): its product carrier of 2**21 points
        passes ``CARRIER_CAP``, but the check reads characters, not points."""
        net = standard_net(6)
        z = [site_operator(SZ, k, 6) for k in range(6)]
        family = [(r, generate_algebra([z[r.start] @ z[r.stop] if r.start < r.stop else z[r.start]], 64, dim_cap=64))
                  for r in net.regions()]
        assert len(family) == 21 and math.prod(len(gelfand_spectrum(alg)) for _, alg in family) > CARRIER_CAP
        assert check_covariance(net, 0, family).ok

    def test_translation_is_automorphism_and_group_action(self):
        length = 3
        d = 2**length
        u1 = translation_unitary(1, length)
        assert np.allclose(u1 @ u1.conj().T, np.eye(d))
        for g, h in itertools.product(range(length), repeat=2):
            lhs = translation_unitary(g, length) @ translation_unitary(h, length)
            rhs = translation_unitary((g + h) % length, length)
            assert np.allclose(lhs, rhs)
        # alpha respects products on a basis of the full algebra
        full = standard_region_algebra(Region(0, length - 1), length)
        rng = np.random.default_rng(0)
        picks = rng.integers(0, full.dimension, size=(5, 2))
        for i, j in picks:
            a, b = full.basis[i], full.basis[j]
            left = u1 @ (a @ b) @ u1.conj().T
            right = (u1 @ a @ u1.conj().T) @ (u1 @ b @ u1.conj().T)
            assert opnorm(left - right) < 1e-10

    def test_contexts_are_matched_to_their_atoms_at_the_spectral_threshold(self):
        """At tol 1e-13, atoms carry more error than ``tol``: the lookup of
        each family context among the contexts built from atoms, and the
        embedding into them, take the spectral threshold."""
        net = standard_net(2, tol=1e-13)
        z0, z1 = site_operator(SZ, 0, 2), site_operator(SZ, 1, 2)
        family = [
            (Region(0, 0), generate_algebra([0.2677912681594989 * z0], 4, 1e-13)),
            (Region(1, 1), generate_algebra([0.914979010411978 * z1], 4, 1e-13)),
            (Region(0, 1), generate_algebra([0.2677912681594989 * z0, z1], 4, 1e-13)),
        ]
        assert check_covariance(net, 1, family).ok

    def test_a_context_without_its_atoms_is_refused_by_region(self):
        """A family span that is not an algebra matches no context built
        from it: refused, naming the region."""
        family = [(Region(k, k), MatrixStarAlgebra(4, [site_operator(SZ, k, 2)])) for k in (0, 1)]
        message = "context at [0,0] matches no context built from its generators"
        with pytest.raises(DomainError, match=re.escape(message)):
            check_covariance(standard_net(2), 1, family)

    def test_a_region_shifted_off_the_chain_wraps(self):
        assert shifted_region(Region(1, 2), 1, 3) is None  # sites 2 and 0: not an interval
        assert shifted_region(Region(1, 1), 1, 3) == Region(2, 2)
        assert shifted_region(Region(2, 2), 1, 3) == Region(0, 0)


FRAME = np.linalg.qr(np.array([[1, 0.7j], [0.4, 1]]))[0]


def near_degenerate_family(gap: float, tol: float) -> list:
    """The context of ``h1 = u diag(1, 1 + gap) u*`` at each site of a
    3-site chain, built from its atoms: covariant and local by construction."""
    h1 = FRAME @ np.diag([1, 1 + gap]) @ FRAME.conj().T
    return [(Region(k, k), context_algebra([site_operator(h1, k, 3)], 8, tol)) for k in range(3)]


class TestAtomBuiltContextsAreComparedAtTheirThreshold:
    """Atoms split off a gap of ``gap`` carry eigensolver error of about
    ``tol |h| / gap``, above ``tol``; two algebras are compared at the
    larger ``span_tol`` of the two, so no spurious verdict follows."""

    @pytest.mark.parametrize("tol", [1e-13, 1e-9])
    @pytest.mark.parametrize("gap", [3e-8, 1e-7, 1e-6, 1e-5, 1e-3])
    def test_covariance_holds(self, gap, tol):
        net = standard_net(3, tol)
        for shift in (1, 2):
            assert check_covariance(net, shift, near_degenerate_family(gap, tol)).violations == []

    @pytest.mark.parametrize("tol", [1e-13, 1e-9])
    @pytest.mark.parametrize("gap", [3e-8, 1e-7, 1e-6, 1e-5, 1e-3])
    def test_disjoint_sites_commute(self, gap, tol):
        net = LocalNet(3, dict(near_degenerate_family(gap, tol)), tol=tol)
        assert check_locality(net).violations == []

    @pytest.mark.parametrize("tol", [1e-13, 1e-9])
    @pytest.mark.parametrize("gap", [1e-6, 1e-5, 1e-3])
    def test_composite_context_is_built(self, gap, tol):
        z2 = context_algebra([site_operator(SZ, 2, 3)], 8, tol)
        parts = [near_degenerate_family(gap, tol)[0], (Region(2, 2), z2)]
        assert composite_context(standard_net(3, tol), parts).dimension == 4


def local_generators(net: LocalNet) -> list:
    """Every basis matrix of every local algebra of the net: the generators
    of its inductive limit."""
    return [b for region in net.regions() for b in net.algebra(region).basis]


class TestInductiveLimit:
    def test_single_site_chain(self):
        net = standard_net(1)
        assert region_algebras([local_generators(net)], net.length)[0].dimension == 4

    def test_two_site_chain_full(self):
        net = standard_net(2)
        assert region_algebras([local_generators(net)], net.length)[0].dimension == 16

    def test_diagonal_net_stays_diagonal(self):
        length = 3
        d = 2**length
        assignment = {}

        def diagonal_algebra(region):
            combos = itertools.product("IZ", repeat=region.stop - region.start + 1)
            basis = [
                pauli_string(dict(zip(region.sites(), c)), length) / np.sqrt(d) for c in combos
            ]
            return MatrixStarAlgebra(d, basis)

        for a in range(length):
            for b in range(a, length):
                assignment[Region(a, b)] = diagonal_algebra(Region(a, b))
        net = LocalNet(length, assignment, builder=diagonal_algebra)
        assert check_isotony(net).ok
        assert check_locality(net).ok
        assert region_algebras([local_generators(net)], net.length)[0].dimension == d


class TestLocallyCovariantSquare:
    def test_degenerate_square(self):
        net = standard_net(2)
        assert check_lc_square(Region(0, 1), Region(0, 1), net).ok

    def test_site_inside_pair(self):
        net = standard_net(2)
        assert check_lc_square(Region(0, 0), Region(0, 1), net).ok

    def test_corrupted_assignment_reported(self):
        net = standard_net(2)
        corrupted = dict(net.assignment)
        corrupted[Region(0, 0)] = standard_region_algebra(Region(1, 1), 2)
        bad = LocalNet(2, corrupted, builder=net.builder)
        report = check_lc_square(Region(0, 0), Region(0, 1), bad)
        assert any(v.kind == "net.lcsquare" for v in report.violations)

    def test_rule_compared_once_per_subregion(self):
        net = standard_net(3)
        corrupted = dict(net.assignment)
        corrupted[Region(0, 0)] = standard_region_algebra(Region(1, 1), 3)
        corrupted[Region(1, 2)] = standard_region_algebra(Region(0, 1), 3)
        built = []
        bad = LocalNet(3, corrupted, builder=lambda r: built.append(r) or net.builder(r))
        pairs = [(s, b) for s in bad.regions() for b in bad.regions() if b.contains(s)]
        # each pair compared afresh and densely, as before the comparison was kept per region
        expected = []
        for s, b in pairs:
            if not algebra_span_leq(bad.algebra(s), bad.algebra(b)):
                expected.append(f"algebra of {s.label()} does not include into algebra of {b.label()}")
            if not algebra_span_equal(bad.algebra(s), net.builder(s)):
                expected.append(
                    f"assigned algebra of {s.label()} differs from the region rule applied inside {b.label()}"
                )
        found = [v.message for s, b in pairs for v in check_lc_square(s, b, bad).violations]
        assert found == expected and len(found) > 2
        assert sorted(built) == bad.regions() and len(built) < len(pairs)

    def test_non_nested_rejected(self):
        net = standard_net(2)
        with pytest.raises(DomainError):
            check_lc_square(Region(0, 1), Region(1, 1), net)


@st.composite
def inclusion_nets(draw):
    """(net, rotated regions) on 1-4 sites: a standard net, a corrupted one
    (each region assigned the standard algebra of a drawn region) or, on up
    to 3 sites, one generated from drawn Pauli strings as a ``--net`` spec
    is, by the exact builder, some leaking out of their region.  The drawn
    regions are conjugated by one random unitary into plain algebras, which
    take the dense tests; so may be the builder's algebras."""
    kind = draw(st.sampled_from(["standard", "corrupted", "generated"]))
    length = draw(st.integers(1, 3 if kind == "generated" else 4))
    d = 2**length
    standard = standard_net(length)
    regions = standard.regions()
    assignment = {}
    for region in regions:
        if kind == "standard":
            assignment[region] = standard.algebra(region)
        elif kind == "corrupted":
            assignment[region] = standard.algebra(draw(st.sampled_from(regions)))
        else:
            sites = st.sampled_from(list(range(length)) if draw(st.booleans()) else list(region.sites()))
            strings = draw(st.lists(st.dictionaries(sites, st.sampled_from("XYZ"), min_size=1), max_size=3))
            assignment[region] = region_algebras([[pauli_string(labels, length) for labels in strings]], length)[0]
    rotated = draw(st.sets(st.sampled_from(regions)))
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**16))), d)

    def conjugate(alg):
        return MatrixStarAlgebra(d, [u @ b @ u.conj().T for b in alg.basis])

    for region in rotated:
        assignment[region] = conjugate(assignment[region])
    builder = (lambda r: conjugate(standard.builder(r))) if draw(st.booleans()) else standard.builder
    return LocalNet(length, assignment, builder=builder), rotated


class TestInclusionTable:
    @settings(max_examples=40, deadline=None)
    @given(inclusion_nets())
    def test_supports_decide_as_the_dense_tests(self, case):
        net, rotated = case
        regions = net.regions()
        for region in regions:
            assert (net.support(region) is None) == (region in rotated)
        for small, big in itertools.product(regions, repeat=2):
            assert net.includes(small, big) == algebra_span_leq(net.algebra(small), net.algebra(big))
        for region in regions:
            expected = algebra_span_equal(net.algebra(region), net.builder(region))
            assert net.matches_reference(region) == expected

    def test_isotony_and_squares_decide_each_inclusion_once(self, monkeypatch):
        net = standard_net(4)
        corrupted = dict(net.assignment)
        corrupted[Region(1, 1)] = standard_region_algebra(Region(2, 2), 4)
        corrupted[Region(0, 2)] = MatrixStarAlgebra(16, standard_region_algebra(Region(0, 1), 4).basis)
        bad = LocalNet(4, corrupted, builder=net.builder)
        decided = collections.Counter()
        include = LocalNet._include
        monkeypatch.setattr(LocalNet, "_include", lambda self, s, b: decided.update([(s, b)]) or include(self, s, b))
        pairs = [(s, b) for s in bad.regions() for b in bad.regions() if b.contains(s)]
        isotony = check_isotony(bad)
        squares = [v for s, b in pairs for v in check_lc_square(s, b, bad).violations]
        assert not isotony.ok and squares
        assert sorted(decided) == sorted(pairs) and set(decided.values()) == {1}


def string_masks(labels: dict, length: int) -> tuple:
    """(x, z) masks of a Pauli string given by its letters, site 0 the high bit."""
    x = sum(1 << length - 1 - k for k, p in labels.items() if p in "XY")
    z = sum(1 << length - 1 - k for k, p in labels.items() if p in "YZ")
    return x, z


def gf2_rank(masks: list, length: int) -> int:
    """Rank over GF(2) of the strings' (x, z) bit vectors, by elimination on a 0/1 array."""
    rows = np.array([[(m >> k) & 1 for m in pair for k in range(length)] for pair in masks], dtype=np.uint8)
    rows = rows.reshape(-1, 2 * length)
    rank = 0
    for col in range(2 * length):
        pivots = np.flatnonzero(rows[rank:, col])
        if not len(pivots):
            continue
        rows[[rank, rank + pivots[0]]] = rows[[rank + pivots[0], rank]]
        hit = np.flatnonzero(rows[:, col])
        rows[hit[hit != rank]] ^= rows[rank]
        rank += 1
    return rank


@st.composite
def pauli_generator_sets(draw):
    """(length, generators, the (x, z) masks of the nonzero ones) on 1-3 sites: strings times
    a phase of +-1 or +-i and a scalar not of unit size, repeats and
    products of earlier generators, multiples of the identity and zero
    matrices; possibly none at all."""
    length = draw(st.integers(1, 3))
    d = 2**length
    gens, masks = [], []
    for kind in draw(st.lists(st.sampled_from(["string", "repeat", "product", "identity", "zero"]), max_size=6)):
        scale = draw(st.sampled_from([1, -1, 1j, -1j])) * draw(st.floats(0.2, 5.0))
        if kind == "string" or (kind in ("repeat", "product") and not gens):
            labels = draw(st.dictionaries(st.integers(0, length - 1), st.sampled_from("IXYZ")))
            gens.append(scale * pauli_string(labels, length))
            masks.append(string_masks(labels, length))
        elif kind == "repeat":
            k = draw(st.integers(0, len(gens) - 1))
            gens.append(scale * gens[k])
            masks.append(masks[k])
        elif kind == "product":
            i, j = draw(st.integers(0, len(gens) - 1)), draw(st.integers(0, len(gens) - 1))
            gens.append(gens[i] @ gens[j])
            masks.append(None if None in (masks[i], masks[j]) else (masks[i][0] ^ masks[j][0], masks[i][1] ^ masks[j][1]))
        elif kind == "identity":
            gens.append(scale * np.eye(d, dtype=complex))
            masks.append((0, 0))
        else:
            gens.append(np.zeros((d, d), dtype=complex))
            masks.append(None)
    return length, gens, [m for m in masks if m is not None]


@st.composite
def pauli_specs(draw):
    """(length, {region: generators}) of a ``--net`` spec on 2-3 sites, each
    region generated by drawn strings, some leaking out of the region."""
    length = draw(st.integers(2, 3))
    spec = {}
    for region in standard_net(length).regions():
        sites = st.sampled_from(list(range(length)) if draw(st.booleans()) else list(region.sites()))
        strings = draw(st.lists(st.dictionaries(sites, st.sampled_from("XYZ"), min_size=1), min_size=1, max_size=3))
        spec[region] = [pauli_string(labels, length) for labels in strings]
    return length, spec


def verdicts(net) -> tuple:
    """Isotony and region-to-whole messages, the locality verdict and its
    clashing region pairs."""
    pairs = [(s, b) for s in net.regions() for b in net.regions() if b.contains(s)]
    squares = [str(v) for s, b in pairs for v in check_lc_square(s, b, net).violations]
    locality = check_locality(net)
    clashes = sorted({tuple(re.findall(r"of (\[\d+,\d+\])", v.message)) for v in locality.violations})
    return [str(v) for v in check_isotony(net).violations], squares, locality.ok, clashes


def count_closures(patch) -> list:
    """Record the generators of every dense closure that ``region_algebras`` takes."""
    calls = []
    dense = locnet.generate_algebra
    patch.setattr(locnet, "generate_algebra", lambda gens, *a, **k: calls.append(gens) or dense(gens, *a, **k))
    return calls


def perturbed(g: np.ndarray, factor: float, tol: float, seed: int) -> np.ndarray:
    """``g`` plus a random matrix of norm ``factor * tol * |g|_F`` orthogonal
    to ``g`` (Frobenius)."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    e -= np.vdot(g, e) / np.vdot(g, g) * g
    return g + e * (factor * tol * np.linalg.norm(g) / np.linalg.norm(e))


class TestPauliClosureOracle:
    """The exact closure of Pauli generators against the dense closure of
    ``generate_algebra``."""

    @settings(max_examples=80, deadline=None)
    @given(pauli_generator_sets())
    def test_closure_matches_the_dense_closure(self, case):
        length, gens, masks = case
        d = 2**length
        with pytest.MonkeyPatch.context() as patch:
            calls = count_closures(patch)
            exact = region_algebras([gens], length)[0]
        assert isinstance(exact, PauliAlgebra) and not calls
        dense = generate_algebra(gens, d, dim_cap=d)
        assert algebra_span_equal(exact, dense)
        assert exact.dimension == dense.dimension == 2 ** gf2_rank(masks, length)
        # the rows are the normalized Hermitian strings, in "IXYZ" order
        words = ["".join(w) for w in itertools.product("IXYZ", repeat=length)]
        positions = []
        for x, z in exact.strings:
            labels = {k: "IZXY"[2 * (x >> length - 1 - k & 1) + (z >> length - 1 - k & 1)] for k in range(length)}
            positions.append(words.index("".join(labels[k] for k in range(length))))
            assert np.array_equal(exact.basis[len(positions) - 1], pauli_string(labels, length) / np.sqrt(d))
        assert positions == sorted(set(positions))

    @pytest.mark.parametrize("tol", [1e-9, 1e-5])
    @settings(max_examples=15, deadline=None)
    @given(case=pauli_specs(), data=st.data())
    def test_perturbations_on_both_sides_of_the_recognition_bound(self, tol, case, data):
        """A generator off its string by half the bound ``tol |g|_F`` of
        ``_pauli_terms`` is recognized, and the net's verdicts stay those of
        the unperturbed spec and of the dense closures of the perturbed one;
        at twice the bound it takes the dense closure."""
        length, spec = case
        region = data.draw(st.sampled_from(sorted(spec)))
        k = data.draw(st.integers(0, len(spec[region]) - 1))
        seed = data.draw(st.integers(0, 2**16))

        def net(factor, build):
            gens = {r: list(g) for r, g in spec.items()}
            gens[region][k] = perturbed(gens[region][k], factor, tol, seed)
            return LocalNet(length, {r: build(g) for r, g in gens.items()}, tol=tol)

        d = 2**length
        exact = net(0.0, lambda g: region_algebras([g], length, tol)[0])
        with pytest.MonkeyPatch.context() as patch:
            calls = count_closures(patch)
            near = net(0.5, lambda g: region_algebras([g], length, tol)[0])
            assert not calls
            net(2.0, lambda g: region_algebras([g], length, tol)[0])
            assert len(calls) == 1
        assert near.support(region) == exact.support(region)
        dense = net(0.5, lambda g: generate_algebra(g, d, tol, dim_cap=d))
        assert verdicts(near) == verdicts(exact)
        assert verdicts(dense) == verdicts(exact)

    @pytest.mark.parametrize("name", ["X+Z", "rotated", "sigma+"])
    def test_other_generators_take_the_dense_closure(self, name):
        x0, z0, x1 = (pauli_string(labels, 2) for labels in ({0: "X"}, {0: "Z"}, {1: "X"}))
        u = random_unitary(np.random.default_rng(4), 4)
        g = {"X+Z": x0 + z0, "rotated": u @ x1 @ u.conj().T, "sigma+": (x0 + 1j * pauli_string({0: "Y"}, 2)) / 2}[name]
        assert _pauli_terms(g[None], 2, DEFAULT_TOL) == [None]
        with pytest.MonkeyPatch.context() as patch:
            calls = count_closures(patch)
            alg = region_algebras([[z0, g]], 2)[0]
        assert len(calls) == 1 and not isinstance(alg, PauliAlgebra)
        assert algebra_span_equal(alg, generate_algebra([z0, g], 4))


def test_standard_net_refuses_chains_over_the_cap():
    from ctxlab.errors import CapExceeded
    from ctxlab.locnet import MAX_SITES

    with pytest.raises(CapExceeded) as info:
        standard_net(MAX_SITES + 1)
    assert (info.value.size, info.value.cap) == (7, 6)


def test_standard_net_builds_each_region_once(monkeypatch):
    """The builder returns the algebra assigned at construction; a net made
    from a corrupted copy still compares against the uncorrupted algebra."""
    import ctxlab.locnet as locnet

    built = collections.Counter()
    build = locnet.standard_region_algebra
    monkeypatch.setattr(locnet, "standard_region_algebra", lambda r, *a: built.update([r]) or build(r, *a))
    net = standard_net(3)
    pairs = [(s, b) for s in net.regions() for b in net.regions() if b.contains(s)]
    assert check_isotony(net).ok
    assert all(check_lc_square(s, b, net).ok for s, b in pairs)
    assert sorted(built) == net.regions() and set(built.values()) == {1}

    corrupted = dict(net.assignment)
    corrupted[Region(0, 0)] = build(Region(1, 1), 3)
    bad = LocalNet(3, corrupted, builder=net.builder)
    assert bad.builder(Region(0, 0)) is net.algebra(Region(0, 0))
    assert not bad.matches_reference(Region(0, 0)) and bad.matches_reference(Region(1, 1))


def test_chain_six_checks_build_no_region_rows(capsys):
    """Between Pauli regions the axioms are set and parity tests, so the
    ``(4**L, 16**L)`` row stacks are never built: the whole chain's alone
    takes 268 MB at 6 sites, and the ambient identity as much again."""
    import tracemalloc

    from ctxlab.cli import main

    tracemalloc.start()
    try:
        assert main(["net-check", "--chain", "6"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert '"violations": []' in capsys.readouterr().out
    assert peak < 32 * 2**20

    net = standard_net(6)
    regions = net.regions()
    assert check_isotony(net).ok and check_locality(net).ok
    assert all(check_lc_square(s, b, net).ok for s in regions for b in regions if b.contains(s))
    assert not [r for r, alg in net.assignment.items() if alg._ortho is not None or alg._basis is not None]
