import numpy as np
import pytest

from conftest import I2, SX, SY, SZ, kron, random_density
from ctxlab.ctxext import (
    Element,
    ExtendedAlgebra,
    ProductSpectrum,
    build_limit_extension,
    embed,
    evaluate_state,
    extend_state,
    spectrum_diagram,
)
from ctxlab.errors import CapExceeded, DomainError, InputError
from ctxlab.fincat import check_cone, check_diagram, limit_of_diagram
from ctxlab.staralg import context_category, context_category_from_groups, full_matrix_algebra


def two_context_extension():
    cc = context_category(full_matrix_algebra(2), [SZ, SX])
    return cc, build_limit_extension(cc)


def sub_family_extension(cc, ids):
    """The extension over the contexts ``ids`` only, in that order."""
    return ExtendedAlgebra(cc, ProductSpectrum(list(ids), [len(cc.spectra[c]) for c in ids]))


class TestCarrier:
    def test_single_context_two_points(self):
        cc = context_category(full_matrix_algebra(2), [SZ])
        ext = build_limit_extension(cc)
        assert ext.carrier.size == 2  # sigma_z context times the trivial point

    def test_two_incompatible_contexts_four_points(self):
        _, ext = two_context_extension()
        assert ext.carrier.size == 4

    def test_carrier_matches_concrete_limit(self):
        _, ext = two_context_extension()
        diagram = spectrum_diagram(ext)
        assert check_diagram(diagram).ok
        cone = limit_of_diagram(diagram)
        assert set(cone.apex) == set(ext.carrier.points)

    def test_restricted_diagram_limit_is_compatible_subset(self):
        groups = [[kron(SZ, I2)], [kron(SZ, I2), kron(I2, SZ)]]
        cc = context_category_from_groups(full_matrix_algebra(4), groups)
        ext = build_limit_extension(cc)
        diagram = spectrum_diagram(ext, with_restrictions=True)
        assert check_diagram(diagram).ok
        cone = limit_of_diagram(diagram)
        assert check_cone(cone, diagram).ok
        assert len(cone.apex) < ext.carrier.size
        assert set(cone.apex) <= set(ext.carrier.points)

    @pytest.mark.parametrize("with_restrictions", [False, True])
    def test_diagram_of_a_repeated_context_refused_by_name(self, with_restrictions):
        cc, _ = two_context_extension()
        ext = sub_family_extension(cc, ["V0", "V0"])
        with pytest.raises(InputError, match="'V0' is listed more than once"):
            spectrum_diagram(ext, with_restrictions=with_restrictions)

    def test_size_cap_refusal(self):
        cc = context_category(full_matrix_algebra(2), [SZ, SX])
        with pytest.raises(CapExceeded):
            build_limit_extension(cc, cap=3)


class TestEmbed:
    def test_identity_embeds_as_unit(self):
        cc, ext = two_context_extension()
        e = embed(np.eye(2), cc.ids()[0], ext)
        assert np.allclose(e.values, 1.0)

    def test_sigma_z_splits_by_component(self):
        cc, ext = two_context_extension()
        zctx = next(cid for cid in cc.ids() if cc.algebra(cid).contains(SZ))
        e = embed(SZ, zctx, ext)
        assert sorted(np.round(e.values.real, 9)) == [-1.0, -1.0, 1.0, 1.0]
        pos = ext.carrier.context_ids.index(zctx)
        comps = {pt[pos] for pt, v in zip(ext.carrier.points, e.values) if v.real > 0}
        assert len(comps) == 1  # value depends only on that context's component

    def test_projection_combination_matches_character_table(self):
        alg3 = generate = np.diag([1.0, 2.0, 3.0]).astype(complex)
        cc = context_category(full_matrix_algebra(3), [generate])
        ext = build_limit_extension(cc)
        vid = next(cid for cid in cc.ids() if cc.algebra(cid).dimension == 3)
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0, 0.0]).astype(complex)
        e = embed(p + 2 * q, vid, ext)
        assert sorted(np.round(e.values.real, 9)) == [0.0, 1.0, 2.0]

    def test_embed_is_star_homomorphism(self, rng):
        cc, ext = two_context_extension()
        vid = cc.ids()[0]
        basis = cc.algebra(vid).basis
        for _ in range(5):
            ca = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            cb = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            a = sum(x * b for x, b in zip(ca, basis))
            b = sum(x * bb for x, bb in zip(cb, basis))
            ea, eb = embed(a, vid, ext).values, embed(b, vid, ext).values
            assert np.allclose(embed(a @ b, vid, ext).values, ea * eb, atol=1e-9)
            assert np.allclose(embed(a.conj().T, vid, ext).values, ea.conj(), atol=1e-9)
            assert np.allclose(embed(a + b, vid, ext).values, ea + eb, atol=1e-9)

    def test_outside_span_rejected(self):
        cc, ext = two_context_extension()
        zctx = next(cid for cid in cc.ids() if cc.algebra(cid).contains(SZ))
        with pytest.raises(DomainError):
            embed(SX, zctx, ext)


class TestExtendState:
    def test_maximally_mixed_is_uniform(self):
        _, ext = two_context_extension()
        mu = extend_state(np.eye(2) / 2, ext)
        assert np.allclose(mu.weights, 0.25)

    def test_pure_state_marginals(self):
        cc, ext = two_context_extension()
        mu = extend_state(np.diag([1.0, 0.0]).astype(complex), ext)
        zctx = next(cid for cid in cc.ids() if cc.algebra(cid).contains(SZ))
        xctx = next(cid for cid in cc.ids() if cc.algebra(cid).contains(SX))
        assert sorted(np.round(mu.marginals[zctx], 9)) == [0.0, 1.0]
        assert np.allclose(mu.marginals[xctx], [0.5, 0.5])

    def test_random_state_marginals_match_born_rule(self, rng):
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(SX, SX)])
        ext = build_limit_extension(cc)
        rho = random_density(rng, 4)
        mu = extend_state(rho, ext)
        for cid in cc.ids():
            for k, chi in enumerate(cc.spectra[cid]):
                born = float(np.trace(rho @ chi.projection).real)  # independent readout
                assert abs(mu.marginals[cid][k] - born) < 1e-10
        assert abs(mu.weights.sum() - 1.0) < 1e-9

    def test_non_state_rejected(self):
        _, ext = two_context_extension()
        with pytest.raises(DomainError):
            extend_state(np.diag([1.0, 1.0]).astype(complex), ext)
        with pytest.raises(DomainError):
            extend_state(np.diag([2.0, -1.0]).astype(complex), ext)


class TestEvaluate:
    def test_unit_evaluates_to_one(self, rng):
        cc, ext = two_context_extension()
        mu = extend_state(random_density(rng, 2), ext)
        assert abs(evaluate_state(mu, embed(np.eye(2), cc.ids()[0], ext)) - 1.0) < 1e-12

    def test_sigma_z_in_ground_state(self):
        cc, ext = two_context_extension()
        mu = extend_state(np.diag([1.0, 0.0]).astype(complex), ext)
        zctx = next(cid for cid in cc.ids() if cc.algebra(cid).contains(SZ))
        assert abs(evaluate_state(mu, embed(SZ, zctx, ext)) - 1.0) < 1e-10

    def test_integral_copies_no_weights(self, rng):
        """Over 131,072 points, the integral of a complex element allocates
        well under the 2 MB that a complex copy of the weights takes."""
        import tracemalloc

        seeds = [kron(SZ, I2), kron(SX, I2), kron(SY, I2), kron(I2, SZ), kron(I2, SX)]
        ext = build_limit_extension(context_category(full_matrix_algebra(4), seeds))
        mu = extend_state(random_density(rng, 4), ext)
        z = embed(kron(SZ, I2), ext.carrier.context_ids[1], ext)
        e = Element(z.carrier, z.values * (1 + 2j))
        assert ext.carrier.size == 131072 and e.values.dtype == complex
        tracemalloc.start()
        try:
            value = evaluate_state(mu, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value - complex(np.dot(e.values, mu.weights))) < 1e-12
        assert peak < mu.weights.nbytes // 2

    def test_expectations_match_trace(self, rng):
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(I2, SZ), kron(SX, SX)])
        ext = build_limit_extension(cc)
        rho = random_density(rng, 4)
        mu = extend_state(rho, ext)
        for cid in cc.ids():
            basis = cc.algebra(cid).basis
            coeffs = rng.standard_normal(len(basis))
            a = sum(c * b for c, b in zip(coeffs, basis))
            a = (a + a.conj().T) / 2
            got = evaluate_state(mu, embed(a, cid, ext))
            want = complex(np.trace(rho @ a))
            assert abs(got - want) < 1e-9


class TestPointValuation:
    """A point reads an element through two contexts as the values of its
    two embeddings there."""

    def overlap_category(self):
        e00 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        e11 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        swap = np.zeros((3, 3), dtype=complex)
        swap[1, 1] = swap[2, 2] = 0.5
        swap[1, 2] = swap[2, 1] = 0.5
        return context_category(full_matrix_algebra(3), [e00, e11, swap]), e00

    def test_identity_always_pairs_ones(self):
        cc, p = self.overlap_category()
        ext = build_limit_extension(cc)
        ids = [cid for cid in cc.ids() if cc.algebra(cid).contains(p)]
        left, right = embed(np.eye(3), ids[0], ext), embed(np.eye(3), ids[1], ext)
        for x in range(ext.carrier.size):
            assert abs(left.values[x] - 1.0) < 1e-9 and abs(right.values[x] - 1.0) < 1e-9

    def test_shared_projection_can_disagree_pointwise(self):
        cc, p = self.overlap_category()
        ext = build_limit_extension(cc)
        ids = [cid for cid in cc.ids() if cc.algebra(cid).contains(p) and cc.algebra(cid).dimension > 1]
        assert len(ids) >= 2
        left, right = embed(p, ids[0], ext), embed(p, ids[1], ext)
        pairs = {
            tuple(np.round(np.real([left.values[x], right.values[x]]), 9))
            for x in range(ext.carrier.size)
        }
        assert (1.0, 0.0) in pairs or (0.0, 1.0) in pairs  # context dependence is literal
        assert (1.0, 1.0) in pairs

    def test_same_context_components_agree(self):
        cc, p = self.overlap_category()
        ext = build_limit_extension(cc)
        vid = next(cid for cid in cc.ids() if cc.algebra(cid).contains(p))
        values = embed(p, vid, ext).values
        pos = ext.carrier.context_ids.index(vid)
        by_component = {}
        for pt, value in zip(ext.carrier.points, values):
            assert by_component.setdefault(pt[pos], value) == value


class TestJsonViews:
    def test_round_trippable_shapes(self, rng):
        from ctxlab.ctxext import carrier_to_json, state_to_json

        cc, ext = two_context_extension()
        points = list(carrier_to_json(ext))
        assert len(points) == 4 and all(set(p) == set(cc.ids()) for p in points)
        mu = extend_state(random_density(rng, 2), ext)
        view = state_to_json(mu)
        assert abs(sum(view["weights"]) - 1.0) < 1e-9


class TestMarginalization:
    def test_marginal_equals_directly_built_extension(self, rng):
        """The product measure summed over the other contexts is the
        product measure of the sub-family."""
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(I2, SZ), kron(SX, SX)])
        ext = build_limit_extension(cc)
        rho = random_density(rng, 4)
        mu = extend_state(rho, ext)
        sub_ids = [cid for cid in ext.carrier.context_ids if cid != "I"][:2]
        dropped = tuple(k for k, cid in enumerate(ext.carrier.context_ids) if cid not in sub_ids)
        pushed = mu.weights.reshape(ext.carrier.sizes).sum(axis=dropped).ravel()
        direct = extend_state(rho, sub_family_extension(cc, sub_ids))
        assert np.allclose(pushed, direct.weights, atol=1e-10)
