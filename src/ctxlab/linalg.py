"""Small dense linear-algebra helpers, and the package's threshold policy.

Matrices are square complex numpy arrays.  A span of d x d matrices is
one ``(rank, d*d)`` array of Frobenius-orthonormal rows (the vectorized
matrices); every span function takes and returns that array, so every
span test is basis independent.

Every numerical threshold of the package is named below.  Each function
takes one ``tol`` (the CLI's ``--tolerance``): structural comparisons
(spans, commutators) use it as it is; tests on projections, characters,
eigenvalue gaps and spans of atoms carry eigensolver error and use
``spectral_tol(tol)``.  Contexts are ordered by the overlap of atoms at that
threshold, atom by atom: a fine atom lies under the coarse atom it overlaps
however many others it leaks into below it.  The character relation and the
rank test have floors of their own; the rank floor also decides whether a basis
of rays is orthonormal, and so its own atoms.  Bounds on outside input (states, +-1
observables, measure weights), the sign-search tie margin and the GFT context
test are fixed, as are the CLI's report bounds, which live in ``cli``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError

DEFAULT_TOL = 1e-9
# Relative singular-value floor of the rank test, and so the smallest
# tolerance that separates a span from rounding (about 1e-16 per entry);
# also the largest Gram entry error of a ray basis read as orthonormal.
RANK_FLOOR = 1e-13
MAX_TOL = 1e-3  # largest tolerance: above it, a test accepts structure, not rounding
SPECTRAL_FLOOR = 1e-8  # eigensolver error of projections, characters and eigenvalue gaps
CHARACTER_FLOOR = 1e-9  # the character relation p b p = val p, scaled by max(1, |b|)
# Fixed bounds on outside input.  A density matrix: asymmetry, trace defect,
# and negativity of its Hermitian part.  A +-1 observable: |v| - 1 of its
# values, or the asymmetry and |m^2 - 1| of its matrix.  A measure weight:
# negativity.
STATE_ASYMMETRY = 1e-9
STATE_TRACE = 1e-8
STATE_NEGATIVITY = 1e-8
OBSERVABLE_TOL = 1e-9
WEIGHT_FLOOR = 1e-12
SIGN_TIE_MARGIN = 1e-15  # a sign vector must read lower by more, so ties keep the first minimizer
GFT_CONTEXT_TOL = 1e-10  # imaginary part of a real inner product of GFT test functions


def spectral_tol(tol: float) -> float:
    """Threshold of a test that reads eigenvectors or eigenvalues."""
    return max(tol, SPECTRAL_FLOOR)


def check_tolerance(tol: float) -> None:
    """Refuse (InputError) a tolerance outside ``[RANK_FLOOR, MAX_TOL]``:
    below the rank floor, rounding passes for structure."""
    if not RANK_FLOOR <= tol <= MAX_TOL:
        raise InputError(f"tolerance {tol!r} must lie in [{RANK_FLOOR:g}, 1e-3]")


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    """Coerce to a square complex ndarray, optionally of a fixed dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise InputError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[0]}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def opnorms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a stack of matrices ``(..., d, d)``, one batched
    SVD; each entry is bitwise the ``opnorm`` of its matrix."""
    if stack.size == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def is_selfadjoint(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return opnorm(m - dagger(m)) <= tol


def is_projection(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return is_selfadjoint(m, tol) and opnorm(m @ m - m) <= tol


def require_state(rho, dim: int | None = None) -> np.ndarray:
    """``rho`` as a matrix, or DomainError unless it is a density matrix:
    finite, self-adjoint, unit trace, and positive semidefinite (its
    Hermitian part), within the fixed ``STATE_*`` bounds."""
    r = as_matrix(rho, dim)
    if not np.all(np.isfinite(r)):
        raise DomainError("state has non-finite entries")
    if opnorm(r - dagger(r)) > STATE_ASYMMETRY:
        raise DomainError("state is not self-adjoint")
    if abs(np.trace(r) - 1.0) > STATE_TRACE:
        raise DomainError("state does not have unit trace")
    if np.linalg.eigvalsh((r + dagger(r)) / 2.0).min() < -STATE_NEGATIVITY:
        raise DomainError("state is not positive semidefinite")
    return r


def orthonormalize_span(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Frobenius-orthonormal rows spanning ``mats``.

    ``mats`` is a list of matrices or a stacked array (of matrices or of
    rows).  Rank is revealed by SVD on the stacked vectorizations; singular
    values below ``tol`` relative to the largest are treated as numerical
    zero.  The result has shape ``(rank, d*d)``.
    """
    if len(mats) == 0:
        return np.zeros((0, 0), dtype=complex)
    stack = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s[0] == 0.0:
        return vh[:0]
    return vh[s > max(tol, RANK_FLOOR) * s[0]]


def max_span_residual(rows: np.ndarray, span: np.ndarray) -> float:
    """Largest norm-scaled residual of ``rows`` outside the span of the
    orthonormal rows ``span``."""
    if len(rows) == 0:
        return 0.0
    scales = np.maximum(1.0, np.linalg.norm(rows, axis=1))
    if len(span):
        rows = rows - (rows @ span.conj().T) @ span
    return float((np.linalg.norm(rows, axis=1) / scales).max())


def span_leq(sub: np.ndarray, sup: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every row of ``sub`` lies in the span of the orthonormal rows ``sup``."""
    return max_span_residual(sub, sup) <= tol


def spans_equal(qa: np.ndarray, qb: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return len(qa) == len(qb) and span_leq(qa, qb, tol) and span_leq(qb, qa, tol)

