"""Correlations over carrier measures and quantum states, and the
odd-group realism bound.

Each observable group mixes two kinds of +/-1 observables: functions on an
extension carrier (correlated through a point measure) and self-adjoint
matrices squaring to the identity (correlated through a shared density
matrix).  The bound

    sum_p < (signed sum of the p-th group)^2 >  >=  number of groups

holds for every measure-based model because an odd sum of +/-1 values is
never zero; quantum evaluation of the same expression may dip below it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ctxext import ExtendedState
from .errors import CapExceeded, DomainError, InputError, MixedObservableError
from .linalg import OBSERVABLE_TOL, SIGN_TIE_MARGIN, WEIGHT_FLOOR, as_matrix, is_selfadjoint, opnorm, require_state

SIGN_SEARCH_CAP = 16


@dataclass
class CarrierObservable:
    """A +/-1-valued function on the points of an extension carrier."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        # NaN compares false, so each value must be shown near +-1
        if not np.all(np.abs(np.abs(self.values) - 1.0) <= OBSERVABLE_TOL):
            raise DomainError("carrier observable must take values +1 or -1")


@dataclass
class MatrixObservable:
    """A self-adjoint matrix with spectrum in {-1, +1} (squares to identity)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix)
        if not is_selfadjoint(self.matrix, OBSERVABLE_TOL):
            raise DomainError("matrix observable must be self-adjoint")
        eye = np.eye(self.matrix.shape[0])
        if opnorm(self.matrix @ self.matrix - eye) > OBSERVABLE_TOL:
            raise DomainError("matrix observable must square to the identity")


@dataclass
class ObservableGroup:
    a_side: list
    b_side: list

    def observables(self) -> list:
        return list(self.a_side) + list(self.b_side)

    @property
    def size(self) -> int:
        return len(self.a_side) + len(self.b_side)


@dataclass
class ObservableFamily:
    groups: list

    def __post_init__(self):
        if not self.groups:
            raise InputError("family needs at least one group")
        for p, group in enumerate(self.groups):
            if group.size % 2 == 0:
                raise DomainError(f"group {p} has even size {group.size}; an odd count is required")

    @property
    def q(self) -> int:
        return len(self.groups)

    @property
    def total(self) -> int:
        return sum(g.size for g in self.groups)


def _weights_of(mu) -> np.ndarray:
    """The weights of a measure: finite, nonnegative, with a positive total."""
    w = mu.weights if isinstance(mu, ExtendedState) else np.asarray(mu, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError("measure weights must be finite")
    if np.any(w < -WEIGHT_FLOOR):
        raise DomainError("measure weights must be nonnegative")
    if not w.sum() > 0:
        raise DomainError("measure weights must have a positive total")
    return w


def _function_values(obs) -> np.ndarray:
    if isinstance(obs, CarrierObservable):
        return obs.values
    if isinstance(obs, MatrixObservable):
        raise MixedObservableError("matrix observable offered to a measure correlation")
    return np.asarray(getattr(obs, "values", obs), dtype=complex).reshape(-1)


def measure_correlation(mu, a, b) -> float:
    """Point-wise product integrated against the measure; symmetric."""
    w = _weights_of(mu)
    av = _function_values(a)
    bv = _function_values(b)
    if av.shape != w.shape or bv.shape != w.shape:
        raise DomainError("observable is not defined on the measure's carrier")
    return float(np.real(np.sum(av * bv * w)))


class MeasureProvider:
    """Correlations of carrier observables under a fixed point measure."""

    def __init__(self, mu):
        self.weights = _weights_of(mu)

    def correlation(self, o1, o2) -> float:
        if not isinstance(o1, CarrierObservable) or not isinstance(o2, CarrierObservable):
            raise MixedObservableError("measure provider correlates carrier observables only")
        return measure_correlation(self.weights, o1.values, o2.values)


class QuantumProvider:
    """Correlations and group squares of matrix observables in one state."""

    def __init__(self, rho):
        self.rho = require_state(rho)

    def correlation(self, o1, o2) -> float:
        if not isinstance(o1, MatrixObservable) or not isinstance(o2, MatrixObservable):
            raise MixedObservableError("quantum provider correlates matrix observables only")
        sym = (o1.matrix @ o2.matrix + o2.matrix @ o1.matrix) / 2.0
        return float(np.trace(self.rho @ sym).real)

    def group_square_expectation(self, observables: list, signs: list) -> float:
        total = np.zeros_like(self.rho)
        for s, obs in zip(signs, observables):
            if not isinstance(obs, MatrixObservable):
                raise MixedObservableError("quantum provider squares matrix observables only")
            total = total + s * obs.matrix
        return float(np.trace(self.rho @ total @ total).real)


def _split_signs(fam: ObservableFamily, signs) -> list:
    flat = list(signs)
    if len(flat) != fam.total:
        raise InputError(f"need {fam.total} signs, got {len(flat)}")
    if any(s not in (1, -1) for s in flat):
        raise InputError("signs must be +1 or -1")
    out = []
    pos = 0
    for group in fam.groups:
        out.append(flat[pos : pos + group.size])
        pos += group.size
    return out


def roy_singh_lhs(fam: ObservableFamily, signs, provider) -> float:
    """Sum over groups of the expected square of the signed observable sum.

    Measure-type groups expand the square into pairwise correlations;
    matrix-type groups are evaluated as literal operator squares.
    """
    per_group = _split_signs(fam, signs)
    lhs = 0.0
    for group, gsigns in zip(fam.groups, per_group):
        obs = group.observables()
        if isinstance(provider, QuantumProvider):
            lhs += provider.group_square_expectation(obs, gsigns)
        else:
            for (i, oi), (j, oj) in itertools.product(enumerate(obs), repeat=2):
                lhs += gsigns[i] * gsigns[j] * provider.correlation(oi, oj)
    return float(lhs)


# flat sign vectors scanned per step, a power of two; bounds the scan's
# memory whatever the cap
SIGN_CHUNK = 1 << 16


def search_signs(fam: ObservableFamily, provider, cap: int = SIGN_SEARCH_CAP) -> tuple:
    """Exhaustive minimum of the bound's left side over all sign vectors.

    Groups are independent, so each gets one table of its quadratic form
    ``s @ mat @ s`` over its own sign vectors.  Flat sign vectors are then
    scanned in ``itertools.product`` order (+1 before -1 per slot), in
    chunks of ``SIGN_CHUNK``, summing the group tables in group order, so
    every value is the same float as the per-vector sum.  The best value
    is replaced only by one below it by more than ``SIGN_TIE_MARGIN``, so the first
    minimizer in that order is returned.
    """
    if fam.total > cap:
        raise CapExceeded("sign search", fam.total, cap)
    # (table, bit shift of the group's slots in the flat index, slot mask)
    tables = []
    shift = fam.total
    for group in fam.groups:
        obs = group.observables()
        mat = np.zeros((group.size, group.size))
        for i, oi in enumerate(obs):
            for j, oj in enumerate(obs):
                # the quantum correlation is symmetrized, so the quadratic
                # form reproduces the operator-square value exactly
                mat[i, j] = provider.correlation(oi, oj)
        vectors = np.array(list(itertools.product((1, -1), repeat=group.size)), dtype=float)
        table = np.array([float(s @ mat @ s) for s in vectors])
        shift -= group.size
        tables.append((table, shift, (1 << group.size) - 1))

    chunk = min(SIGN_CHUNK, 2**fam.total)
    offsets = np.arange(chunk, dtype=np.int64)
    best_index, best_value = 0, None
    for start in range(0, 2**fam.total, chunk):
        values = 0.0
        for table, shift, mask in tables:
            # start is a multiple of chunk, so its bits and the offsets' never carry
            values = values + table[((start >> shift) & mask) | ((offsets >> shift) & mask)]
        if best_value is None:
            best_value = float(values[0])
        # every value scanned so far is >= best_value - SIGN_TIE_MARGIN, so the first
        # value below that threshold is where the running minimum first
        # drops below it: a binary search on the negated running minimum
        falls = -np.minimum.accumulate(values)
        while True:
            at = int(np.searchsorted(falls, -(best_value - SIGN_TIE_MARGIN), side="right"))
            if at == chunk:
                break
            best_index, best_value = start + at, float(values[at])
    signs = [-1 if (best_index >> (fam.total - 1 - k)) & 1 else 1 for k in range(fam.total)]
    return signs, best_value
