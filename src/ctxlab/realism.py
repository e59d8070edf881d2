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
    """Correlations of matrix observables in one state."""

    def __init__(self, rho):
        self.rho = require_state(rho)

    def correlation(self, o1, o2) -> float:
        for obs in (o1, o2):
            if not isinstance(obs, MatrixObservable):
                raise MixedObservableError("quantum provider correlates matrix observables only")
            if obs.matrix.shape != self.rho.shape:
                raise DomainError("observable is not defined on the state's space")
        a, b = o1.matrix, o2.matrix
        return float(np.trace(self.rho @ ((a @ b + b @ a) / 2.0)).real)


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


def _group_form(group: ObservableGroup, provider) -> np.ndarray:
    """The correlation matrix of one group's observables.  The quantum
    correlation is symmetrized, so ``s @ form @ s`` is the expected square
    of the signed sum in either provider."""
    obs = group.observables()
    return np.array([[provider.correlation(oi, oj) for oj in obs] for oi in obs], dtype=float)


def roy_singh_lhs(fam: ObservableFamily, signs, provider) -> float:
    """Sum over groups, in group order from 0.0, of the expected square of
    the signed observable sum: ``s @ form @ s`` of each ``_group_form``, the
    same floats that ``search_signs`` tabulates."""
    lhs = 0.0
    for group, gsigns in zip(fam.groups, _split_signs(fam, signs)):
        s = np.array(gsigns, dtype=float)
        lhs += float(s @ _group_form(group, provider) @ s)
    return lhs


def search_signs(fam: ObservableFamily, provider, cap: int = SIGN_SEARCH_CAP) -> tuple:
    """Exact minimum of the bound's left side over all sign vectors.

    Groups are independent, so each gets one table of its quadratic form
    ``s @ mat @ s`` over its own sign vectors.  A depth-first search takes
    one entry per group, in group order and each table in index order: its
    leaves come in ``itertools.product`` order (+1 before -1 per slot), each
    the same float as the per-vector sum.  A leaf replaces the best only if
    below it by more than ``SIGN_TIE_MARGIN``, so the first minimizer is
    returned.  A subtree is skipped when its partial sum plus each later
    table's minimum, added left to right, is not below that threshold: IEEE
    addition is monotone, so no leaf in it could replace the best.
    """
    if fam.total > cap:
        raise CapExceeded("sign search", fam.total, cap)
    rows, tables = [], []
    for group in fam.groups:
        form = _group_form(group, provider)
        rows.append(list(itertools.product((1, -1), repeat=group.size)))
        tables.append([float(s @ form @ s) for s in np.array(rows[-1], dtype=float)])
    floors = [min(table) for table in tables]

    best_value, best_path = None, None
    path = [0] * fam.q
    # (group, table index, sum of the groups before it): a stack, as a raised
    # cap may allow more groups than Python's recursion limit
    stack = [(0, k, 0.0) for k in reversed(range(len(tables[0])))]
    while stack:
        p, k, partial = stack.pop()
        path[p] = k
        value = partial + tables[p][k]
        bound = value
        for floor in floors[p + 1 :]:
            bound += floor
        if best_value is not None and not bound < best_value - SIGN_TIE_MARGIN:
            continue
        if p + 1 < fam.q:
            stack.extend((p + 1, j, value) for j in reversed(range(len(tables[p + 1]))))
        else:
            best_value, best_path = value, list(path)
    signs = [s for row, k in zip(rows, best_path) for s in row[k]]
    return signs, best_value
