import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SX, SZ, random_unitary
from ctxlab import locnet
from ctxlab.errors import DomainError
from ctxlab.linalg import commutator, opnorm
from ctxlab.locnet import (
    LocalNet,
    Region,
    check_covariance,
    check_isotony,
    check_lc_square,
    check_locality,
    composite_context,
    inductive_limit,
    pauli_masses,
    pauli_string,
    pauli_support,
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
                    if opnorm(commutator(a, b)) > net.tol:
                        out.append(
                            f"[net.locality] basis elements {ai} of {left.label()} "
                            f"and {bi} of {right.label()} do not commute"
                        )
    return out


@st.composite
def pauli_nets(draw, frames=True):
    """Nets on 2-4 sites whose region spans are drawn Pauli strings; a leak
    puts a string on a site outside its region.  A common random unitary
    conjugation keeps every commutation and makes the entries inexact;
    without ``frames`` every net is unrotated, so its supports are certified."""
    length = draw(st.integers(2, 4))
    norm = np.sqrt(2**length)
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
            basis = [np.eye(2**length, dtype=complex) / norm]
            basis += [pauli_string(labels, length) / norm for labels in strings]
            basis = [u @ m @ u.conj().T for m in basis]
            assignment[region] = MatrixStarAlgebra(2**length, basis)
    return LocalNet(length, assignment)


def count_dense_calls(monkeypatch) -> list:
    """Record the (left, right) stacks of every dense commutator block."""
    calls = []

    def recording(a, b):
        calls.append((a.tobytes(), b.tobytes()))
        return dense(a, b)

    dense = locnet._pair_commutators
    monkeypatch.setattr(locnet, "_pair_commutators", recording)
    return calls


def stacked(net, region) -> bytes:
    return np.stack(net.algebra(region).basis).tobytes()


def certified_commuting(net, left, right) -> bool:
    """Both supports certified, and every pair of their strings commutes as
    matrices."""
    sl, sr = net.support(left), net.support(right)
    if sl is None or sr is None:
        return False
    words = list(itertools.product("IXYZ", repeat=net.length))

    def strings(mask):
        return [pauli_string(dict(enumerate(words[p])), net.length) for p in np.flatnonzero(mask)]

    return all(np.allclose(a @ b, b @ a) for a in strings(sl) for b in strings(sr))


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
    def test_certified_nets_match_pairwise_loop(self, net):
        assert all(net.support(r) is not None for r in net.regions())
        assert [str(v) for v in check_locality(net).violations] == looped_locality(net)

    @pytest.mark.parametrize("tol", [1e-9, 1e-5])
    @pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0, 16.0])
    def test_off_support_mass_on_both_sides_of_the_bound(self, monkeypatch, tol, factor):
        """Site 0 holds s (X0 + eta Z1) / 2, whose Z1 part anticommutes with
        site 1's X1.  Its support {I, X0} stays certified; the bound
        2 s eta is placed at ``factor * tol / 2``, and the commutator,
        s eta / 2, exceeds ``tol`` only for factor 16."""
        scale = 32.0
        eta = factor * tol / (4 * scale)
        eye, x0, z1, x1 = (pauli_string(labels, 2) / 2.0 for labels in ({}, {0: "X"}, {1: "Z"}, {1: "X"}))
        assignment = {
            Region(0, 0): MatrixStarAlgebra(4, [eye, scale * (x0 + eta * z1)], tol),
            Region(1, 1): MatrixStarAlgebra(4, [eye, x1], tol),
        }
        net = LocalNet(2, assignment, tol=tol)
        calls = count_dense_calls(monkeypatch)
        found = [str(v) for v in check_locality(net).violations]
        assert net.support(Region(0, 0)) is not None and net.support(Region(1, 1)) is not None
        assert found == looped_locality(net)
        assert bool(found) == (factor > 8)
        assert len(calls) == (0 if factor < 1 else 1)

    @settings(max_examples=40, deadline=None)
    @given(pauli_nets())
    def test_uncertified_and_anticommuting_supports_take_the_dense_path(self, net):
        """Every disjoint pair whose supports are not both certified, or
        hold two anticommuting strings (tested on the Pauli matrices), is
        formed densely, in loop order; the drawn nets have unit-norm basis
        matrices with no off-support mass, so no other pair is."""
        with pytest.MonkeyPatch.context() as patch:
            calls = count_dense_calls(patch)
            check_locality(net)
        expected = []
        regions = net.regions()
        for i, left in enumerate(regions):
            for right in regions[i + 1 :]:
                if left.disjoint(right) and not certified_commuting(net, left, right):
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

    def test_non_cyclic_out_of_range(self):
        with pytest.raises(DomainError):
            shifted_region(Region(1, 2), 1, 3, cyclic=False)
        assert shifted_region(Region(1, 1), 1, 3, cyclic=False) == Region(2, 2)


class TestInductiveLimit:
    def test_single_site_chain(self):
        net = standard_net(1)
        assert inductive_limit(net).dimension == 4

    def test_two_site_chain_full(self):
        net = standard_net(2)
        assert inductive_limit(net).dimension == 16

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
        assert inductive_limit(net).dimension == d


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
            if not algebra_span_leq(bad.algebra(s), bad.algebra(b), bad.tol):
                expected.append(f"algebra of {s.label()} does not include into algebra of {b.label()}")
            if not algebra_span_equal(bad.algebra(s), net.builder(s), bad.tol):
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
    is, some leaking out of their region.  The drawn regions are conjugated
    by one random unitary, which breaks their Pauli certificate; so may be
    the builder's algebras."""
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
            assignment[region] = generate_algebra([pauli_string(labels, length) for labels in strings], d, dim_cap=d)
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
            # span{I} and the full algebra are the only unitarily invariant spans
            if region not in rotated:
                assert net.support(region) is not None
            elif 1 < len(net.algebra(region).ortho) < net.dim**2:
                assert net.support(region) is None
        for small, big in itertools.product(regions, repeat=2):
            assert net.includes(small, big) == algebra_span_leq(net.algebra(small), net.algebra(big), net.tol)
        for region in regions:
            expected = algebra_span_equal(net.algebra(region), net.builder(region), net.tol)
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

    def test_exact_pauli_strings_are_certified(self):
        region = Region(1, 2)
        alg = standard_region_algebra(region, 4)
        masses = pauli_masses(alg.ortho, 4)
        labels = ["".join(c) for c in itertools.product("IXYZ", repeat=4)]
        inside = np.array([lab[0] == "I" and lab[3] == "I" for lab in labels])
        assert np.array_equal(pauli_support(alg, 4), inside)
        assert masses[~inside].sum() < 1e-30
        assert np.allclose(masses[inside], 1.0, rtol=0, atol=1e-15)

    def test_a_span_off_the_pauli_grid_is_not_certified(self):
        # span{I, (X + Z)/sqrt(2)} on one site: two strings of mass 1/2 each
        eye, xz = np.eye(2) / np.sqrt(2), (SX + SZ) / 2.0
        assert pauli_support(MatrixStarAlgebra(2, [eye, xz]), 1) is None
        assert pauli_support(MatrixStarAlgebra(2, [eye, SZ / np.sqrt(2)]), 1) is not None
        assert pauli_support(MatrixStarAlgebra(4, [np.eye(4) / 2.0]), 1) is None


def test_standard_net_refuses_chains_over_the_cap():
    from ctxlab.errors import CapExceeded
    from ctxlab.locnet import MAX_SITES

    with pytest.raises(CapExceeded) as info:
        standard_net(MAX_SITES + 1)
    assert (info.value.size, info.value.cap) == (7, 6)


def test_standard_net_builds_each_region_once(monkeypatch):
    """The builder returns the algebra assigned at construction, whose Pauli
    support is then the only one computed for the region; a net made from
    a corrupted copy still compares against the uncorrupted algebra."""
    import ctxlab.locnet as locnet

    built, weighed = collections.Counter(), []
    build, masses = locnet.standard_region_algebra, locnet.pauli_masses
    monkeypatch.setattr(locnet, "standard_region_algebra", lambda r, *a: built.update([r]) or build(r, *a))
    monkeypatch.setattr(locnet, "pauli_masses", lambda rows, length: weighed.append(rows) or masses(rows, length))
    net = standard_net(3)
    pairs = [(s, b) for s in net.regions() for b in net.regions() if b.contains(s)]
    assert check_isotony(net).ok
    assert all(check_lc_square(s, b, net).ok for s, b in pairs)
    assert sorted(built) == net.regions() and set(built.values()) == {1}
    assert len(weighed) == len(net.regions())

    corrupted = dict(net.assignment)
    corrupted[Region(0, 0)] = build(Region(1, 1), 3)
    bad = LocalNet(3, corrupted, builder=net.builder)
    assert bad.builder(Region(0, 0)) is net.algebra(Region(0, 0))
    assert not bad.matches_reference(Region(0, 0)) and bad.matches_reference(Region(1, 1))
