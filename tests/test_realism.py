import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxlab
from conftest import I2, SX, SY, SZ, kron, random_density
from ctxlab.ctxext import build_limit_extension, extend_state
from ctxlab.errors import CapExceeded, DomainError, InputError, MixedObservableError
from ctxlab.realism import (
    CarrierObservable,
    MatrixObservable,
    MeasureProvider,
    ObservableFamily,
    ObservableGroup,
    QuantumProvider,
    measure_correlation,
    roy_singh_lhs,
    search_signs,
)
from ctxlab.staralg import context_category, full_matrix_algebra


def uniform(n):
    return np.full(n, 1.0 / n)


class TestMeasureInputs:
    @pytest.mark.parametrize("weights, message", [
        ([0.5, np.nan], "finite"),
        ([0.0, 0.0], "positive total"),
        ([-0.25, -0.75], "nonnegative"),
    ])
    def test_garbage_weights_are_refused(self, weights, message):
        with pytest.raises(DomainError, match=message):
            MeasureProvider(np.array(weights))

    def test_a_nan_carrier_value_is_refused(self):
        with pytest.raises(DomainError, match="values \\+1 or -1"):
            CarrierObservable(np.array([1.0, np.nan]))


class TestMeasureCorrelation:
    def test_constants_correlate_to_one(self):
        w = uniform(4)
        ones = np.ones(4)
        assert measure_correlation(w, ones, ones) == 1.0

    def test_opposite_functions(self):
        w = uniform(4)
        a = np.array([1.0, -1.0, 1.0, -1.0])
        assert measure_correlation(w, a, -a) == -1.0

    def test_matches_four_term_enumeration(self, rng):
        w = uniform(4)
        a = rng.choice([-1.0, 1.0], 4)
        b = rng.choice([-1.0, 1.0], 4)
        by_hand = sum(a[i] * b[i] * 0.25 for i in range(4))
        assert abs(measure_correlation(w, a, b) - by_hand) < 1e-12

    def test_symmetry_and_bilinearity(self, rng):
        w = rng.random(6)
        w /= w.sum()
        a, b, c = (rng.standard_normal(6) for _ in range(3))
        assert abs(measure_correlation(w, a, b) - measure_correlation(w, b, a)) < 1e-12
        assert abs(
            measure_correlation(w, a, b + c)
            - measure_correlation(w, a, b)
            - measure_correlation(w, a, c)
        ) < 1e-12

    def test_works_with_extended_states(self):
        cc = context_category(full_matrix_algebra(2), [SZ, SX])
        ext = build_limit_extension(cc)
        mu = extend_state(np.eye(2, dtype=complex) / 2, ext)
        a = np.array([1.0, 1.0, -1.0, -1.0])
        assert abs(measure_correlation(mu, a, a) - 1.0) < 1e-12


class TestFamilies:
    def test_even_group_rejected(self):
        obs = [CarrierObservable(np.ones(2)), CarrierObservable(-np.ones(2))]
        with pytest.raises(DomainError, match="odd"):
            ObservableFamily([ObservableGroup(obs, [])])

    def test_degenerate_single_observable_group(self):
        fam = ObservableFamily([ObservableGroup([CarrierObservable(np.ones(4))], [])])
        lhs = roy_singh_lhs(fam, [1], MeasureProvider(uniform(4)))
        assert abs(lhs - 1.0) < 1e-12

    def test_bad_carrier_values_rejected(self):
        with pytest.raises(DomainError):
            CarrierObservable(np.array([1.0, 0.5]))

    def test_non_involution_matrix_rejected(self):
        with pytest.raises(DomainError):
            MatrixObservable(np.diag([1.0, 2.0]))


class TestRoySinghQuantum:
    def test_single_squared_observable_saturates(self):
        fam = ObservableFamily([ObservableGroup([MatrixObservable(SZ)], [])])
        prov = QuantumProvider(np.diag([0.25, 0.75]).astype(complex))
        for sign in (1, -1):
            assert abs(roy_singh_lhs(fam, [sign], prov) - 1.0) < 1e-12

    def test_three_anticommuting_paulis_give_three(self, rng):
        # (s1 X + s2 Y + s3 Z)^2 = 3 I because all cross terms anticommute
        fam = ObservableFamily(
            [ObservableGroup([MatrixObservable(SX), MatrixObservable(SY)], [MatrixObservable(SZ)])]
        )
        for _ in range(3):
            prov = QuantumProvider(random_density(rng, 2))
            for signs in itertools.product((1, -1), repeat=3):
                assert abs(roy_singh_lhs(fam, list(signs), prov) - 3.0) < 1e-10

    def test_quantum_minimum_can_beat_the_classical_bound(self):
        tilted = (SX + SZ) / np.sqrt(2.0)
        fam = ObservableFamily(
            [
                ObservableGroup(
                    [MatrixObservable(SX)],
                    [MatrixObservable(SZ), MatrixObservable(tilted)],
                )
            ]
        )
        prov = QuantumProvider(np.eye(2, dtype=complex) / 2)
        signs, minimum = search_signs(fam, prov)
        assert minimum < fam.q - 0.5
        assert abs(roy_singh_lhs(fam, signs, prov) - minimum) < 1e-10

    def test_commuting_family_matches_joint_measure_oracle(self, rng):
        # joint spectral measure in the computational basis reproduces the
        # quantum value whenever the group commutes
        mats = [kron(SZ, I2), kron(I2, SZ), kron(SZ, SZ)]
        rho = random_density(rng, 4)
        weights = np.real(np.diag(rho))
        tables = [np.real(np.diag(m)) for m in mats]
        fam_q = ObservableFamily([ObservableGroup([MatrixObservable(m) for m in mats], [])])
        fam_m = ObservableFamily([ObservableGroup([CarrierObservable(t) for t in tables], [])])
        quantum = QuantumProvider(rho)
        measure = MeasureProvider(weights)
        for signs in itertools.product((1, -1), repeat=3):
            lhs_q = roy_singh_lhs(fam_q, list(signs), quantum)
            lhs_m = roy_singh_lhs(fam_m, list(signs), measure)
            assert abs(lhs_q - lhs_m) < 1e-10


class TestClassicalBound:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        sizes=st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=3),
    )
    def test_measure_lhs_never_beats_group_count(self, data, sizes):
        points = data.draw(st.integers(2, 6))
        weights = np.array(
            data.draw(
                st.lists(st.floats(0.01, 1.0), min_size=points, max_size=points)
            )
        )
        weights /= weights.sum()
        provider = MeasureProvider(weights)
        groups = []
        total = 0
        for size in sizes:
            obs = []
            for _ in range(size):
                values = np.array(
                    data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=points, max_size=points))
                )
                obs.append(CarrierObservable(values))
            split = size // 2
            groups.append(ObservableGroup(obs[:split], obs[split:]))
            total += size
        fam = ObservableFamily(groups)
        signs = [data.draw(st.sampled_from([1, -1])) for _ in range(total)]
        assert roy_singh_lhs(fam, signs, provider) >= fam.q - 1e-12

    def test_search_certifies_the_bound(self, rng):
        weights = rng.random(5)
        weights /= weights.sum()
        obs = [CarrierObservable(rng.choice([-1.0, 1.0], 5)) for _ in range(5)]
        fam = ObservableFamily(
            [
                ObservableGroup(obs[:2], obs[2:3]),
                ObservableGroup(obs[3:4], []),
                ObservableGroup([], obs[4:]),
            ]
        )
        _, minimum = search_signs(fam, MeasureProvider(weights))
        assert minimum >= fam.q - 1e-12

    def test_search_single_observable(self):
        fam = ObservableFamily([ObservableGroup([CarrierObservable(np.ones(3))], [])])
        signs, minimum = search_signs(fam, MeasureProvider(uniform(3)))
        assert abs(minimum - 1.0) < 1e-12
        assert signs in ([1], [-1])

    def test_search_cap(self):
        obs = [CarrierObservable(np.ones(2)) for _ in range(3)]
        fam = ObservableFamily([ObservableGroup(obs, [])])
        with pytest.raises(CapExceeded):
            search_signs(fam, MeasureProvider(uniform(2)), cap=2)


def random_involution(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return MatrixObservable((q * rng.choice([-1.0, 1.0], d)) @ q.conj().T)


class TestTheBoundAtTheSearchedSigns:
    """``roy_singh_lhs`` at the signs that ``search_signs`` returns is the
    minimum it reports, bit for bit: both read one table per group."""

    @pytest.mark.parametrize("kind", ["quantum", "measure"])
    def test_the_lhs_at_the_argmin_is_the_minimum(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(20):
            if kind == "quantum":
                provider = QuantumProvider(random_density(rng, 4))
            else:
                weights = rng.random(6)
                provider = MeasureProvider(weights / weights.sum())
            groups = [[random_involution(rng, 4) if kind == "quantum" else CarrierObservable(rng.choice([-1.0, 1.0], 6))
                       for _ in range(n)] for n in (3, 1, 1, 3)]
            fam = ObservableFamily([ObservableGroup(g, []) for g in groups])
            signs, minimum = search_signs(fam, provider)
            assert roy_singh_lhs(fam, signs, provider) == minimum


# reads the weights and each group's carrier values as JSON on stdin, and
# writes the signs and the minimum (as a float's hex) that the search finds
# with the cap raised to the family's total
PAST_THE_CAP = """
import json, sys
import numpy as np
from ctxlab.realism import CarrierObservable, MeasureProvider, ObservableFamily, ObservableGroup, search_signs
data = json.load(sys.stdin)
fam = ObservableFamily([ObservableGroup([CarrierObservable(v) for v in g], []) for g in data["groups"]])
signs, minimum = search_signs(fam, MeasureProvider(np.array(data["weights"])), cap=fam.total)
json.dump({"signs": signs, "minimum": minimum.hex()}, sys.stdout)
"""


class TestPastTheDefaultCap:
    """Measure families far past ``SIGN_SEARCH_CAP``, each searched in a
    child process under a 20 s timeout, so that a search of all 2**total
    sign vectors fails rather than hangs."""

    @pytest.mark.parametrize("sizes", [(5,) * 12, (1,) * 1200], ids=["12x5", "1200x1"])
    def test_the_minimum_is_the_sum_of_the_group_minima(self, sizes):
        rng = np.random.default_rng(len(sizes))
        weights = rng.random(32) + 0.05
        weights /= weights.sum()
        groups = [rng.choice([-1.0, 1.0], (size, 32)) for size in sizes]
        src = os.path.dirname(os.path.dirname(os.path.abspath(ctxlab.__file__)))
        data = json.dumps({"weights": weights.tolist(), "groups": [g.tolist() for g in groups]})
        result = subprocess.run([sys.executable, "-c", PAST_THE_CAP], input=data, capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=20, check=True)
        found = json.loads(result.stdout)
        minimum = float.fromhex(found["minimum"])
        # the groups share no observable, so the minimum is the sum of each
        # group's own minimum, here by brute force over its sign vectors
        expected = 0.0
        for g in groups:
            expected += min(float(np.sum(weights * (np.array(s) @ g) ** 2))
                            for s in itertools.product((1, -1), repeat=len(g)))
        assert abs(minimum - expected) <= 1e-12
        fam = ObservableFamily([ObservableGroup([CarrierObservable(v) for v in g], []) for g in groups])
        assert abs(roy_singh_lhs(fam, found["signs"], MeasureProvider(weights)) - minimum) <= 1e-12


class TestTypedRefusals:
    def test_cross_type_pair_refused(self):
        carrier, matrix = CarrierObservable(np.ones(2)), MatrixObservable(SZ)
        with pytest.raises(MixedObservableError):
            MeasureProvider(uniform(2)).correlation(carrier, matrix)
        with pytest.raises(MixedObservableError):
            QuantumProvider(np.eye(2, dtype=complex) / 2).correlation(matrix, carrier)

    def test_matching_types_dispatch(self):
        c = MeasureProvider(uniform(2)).correlation(CarrierObservable(np.ones(2)), CarrierObservable(np.ones(2)))
        q = QuantumProvider(np.eye(2, dtype=complex) / 2).correlation(MatrixObservable(SZ), MatrixObservable(SZ))
        assert abs(c - 1.0) < 1e-12 and abs(q - 1.0) < 1e-12

    def test_observables_off_the_state_space_are_refused(self):
        prov = QuantumProvider(np.eye(2, dtype=complex) / 2)
        wide = MatrixObservable(kron(SZ, I2))
        with pytest.raises(DomainError, match="not defined on the state's space"):
            prov.correlation(wide, wide)
        fam = ObservableFamily([ObservableGroup([MatrixObservable(SZ), wide, MatrixObservable(SX)], [])])
        with pytest.raises(DomainError, match="not defined on the state's space"):
            roy_singh_lhs(fam, [1, 1, 1], prov)
        fam = ObservableFamily([ObservableGroup([MatrixObservable(np.eye(1))], [])])
        with pytest.raises(DomainError, match="not defined on the state's space"):
            roy_singh_lhs(fam, [1], prov)

    def test_measure_provider_rejects_matrices(self):
        fam = ObservableFamily([ObservableGroup([MatrixObservable(SZ)], [])])
        with pytest.raises(MixedObservableError):
            roy_singh_lhs(fam, [1], MeasureProvider(uniform(2)))

    def test_sign_vector_validation(self):
        fam = ObservableFamily([ObservableGroup([CarrierObservable(np.ones(2))], [])])
        with pytest.raises(InputError):
            roy_singh_lhs(fam, [1, 1], MeasureProvider(uniform(2)))
        with pytest.raises(InputError):
            roy_singh_lhs(fam, [2], MeasureProvider(uniform(2)))
