"""Small dense linear-algebra helpers used by the algebra modules.

Matrices are square complex numpy arrays.  Spans of matrices are handled
through their vectorizations with the Frobenius inner product, so every
span test is basis independent.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

DEFAULT_TOL = 1e-9


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


def is_selfadjoint(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return opnorm(m - dagger(m)) <= tol


def is_projection(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return is_selfadjoint(m, tol) and opnorm(m @ m - m) <= tol


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def orthonormalize_span(mats: list[np.ndarray], tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the span of ``mats``.

    Rank is revealed by SVD on the stacked vectorizations; singular values
    below ``tol`` relative to the largest are treated as numerical zero.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return []
    d = mats[0].shape[0]
    stack = np.stack([m.reshape(-1) for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > max(tol, 1e-13) * s[0]
    return [vh[i].reshape(d, d) for i in range(len(s)) if keep[i]]


def span_residual(m: np.ndarray, ortho_basis: list[np.ndarray]) -> float:
    """Frobenius norm of the component of ``m`` outside the span."""
    v = m.reshape(-1)
    for q in ortho_basis:
        v = v - np.vdot(q.reshape(-1), v) * q.reshape(-1)
    return float(np.linalg.norm(v))


def in_span(m: np.ndarray, ortho_basis: list[np.ndarray], tol: float = DEFAULT_TOL) -> bool:
    scale = max(1.0, float(np.linalg.norm(m)))
    return span_residual(m, ortho_basis) <= tol * scale


def max_span_residual(mats: list[np.ndarray], ortho_basis: list[np.ndarray]) -> float:
    """Largest norm-scaled residual of ``mats`` outside the span, vectorized."""
    if not mats:
        return 0.0
    v = np.stack([m.reshape(-1) for m in mats])
    scales = np.maximum(1.0, np.linalg.norm(v, axis=1))
    if not ortho_basis:
        return float((np.linalg.norm(v, axis=1) / scales).max())
    q = np.stack([b.reshape(-1) for b in ortho_basis])
    r = v - (v @ q.conj().T) @ q
    return float((np.linalg.norm(r, axis=1) / scales).max())


def span_leq(sub: list[np.ndarray], sup_ortho: list[np.ndarray], tol: float = DEFAULT_TOL) -> bool:
    """True iff every matrix of ``sub`` lies in the span of ``sup_ortho``."""
    return max_span_residual(sub, sup_ortho) <= tol


def intersect_spans(
    ortho_a: list[np.ndarray], ortho_b: list[np.ndarray], tol: float = DEFAULT_TOL
) -> list[np.ndarray]:
    """Orthonormal basis of the intersection of two matrix spans.

    Principal-angle computation: singular vectors of Qa† Qb with singular
    value 1 span the intersection.
    """
    if not ortho_a or not ortho_b:
        return []
    d = ortho_a[0].shape[0]
    qa = np.stack([m.reshape(-1) for m in ortho_a])
    qb = np.stack([m.reshape(-1) for m in ortho_b])
    u, s, vh = np.linalg.svd(qa.conj() @ qb.T)
    vecs = []
    for i, sv in enumerate(s):
        if sv >= 1.0 - max(tol, 1e-12):
            vecs.append((u[:, i].conj() @ qa).reshape(d, d))
    return orthonormalize_span(vecs, tol) if vecs else []


def spans_equal(
    ortho_a: list[np.ndarray], ortho_b: list[np.ndarray], tol: float = DEFAULT_TOL
) -> bool:
    if len(ortho_a) != len(ortho_b):
        return False
    return span_leq(ortho_a, ortho_b, tol) and span_leq(ortho_b, ortho_a, tol)


def projector_leq(p: np.ndarray, q: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """p <= q for projections, i.e. q p = p."""
    return opnorm(q @ p - p) <= tol
