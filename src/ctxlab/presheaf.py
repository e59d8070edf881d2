"""Spectral presheaves, valuation search, daseinisation.

The presheaf assigns each context its character space with restriction
along inclusions; a global section is a context-consistent valuation, and
an empty section list certifies the obstruction to such valuations for
the given family.  Projections outside a context are approximated from
outside and inside by projections of the context (daseinisation).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError, InputError
from .fincat import solve_constraints
from .linalg import DEFAULT_TOL, RANK_FLOOR, SPECTRAL_FLOOR, as_matrix, dagger, is_projection, opnorm, spectral_tol
from .staralg import (
    ContextCategory,
    MatrixStarAlgebra,
    _assemble,
    check_dimension,
    context_category_from_groups,
    full_matrix_algebra,
    gelfand_spectrum,
)
from .validation import array, load_json, member, number_rows, whole_number


# ---------------------------------------------------------------------------
# the spectral presheaf


@dataclass
class SpectralPresheaf:
    """Fibers of characters over a context category, with restrictions.

    ``restrictions[(sub, sup)]`` is the tuple whose entry at a character
    index of the finer context ``sup`` is the index of its restriction in
    ``sub``.
    """

    base: ContextCategory
    fibers: dict
    restrictions: dict


def build_spectral_presheaf(cc: ContextCategory) -> SpectralPresheaf:
    """Fibers are the context spectra; a finer context's character
    restricts to the one coarser character whose projection overlaps its
    own.  The category decided both when it was built; this reads them."""
    return SpectralPresheaf(cc, dict(cc.spectra), dict(cc.restrictions))


def global_sections(p: SpectralPresheaf, limit: int | None = None) -> list:
    """Context-consistent character choices, by ``fincat.solve_constraints``:
    each a dict from context id to character index.

    Contexts are assigned most-constrained first (by comparability degree,
    ties by id), characters in index order.  Forward checking through the
    restriction tables prunes the later contexts' fibers, and the sections
    come out in the same order as plain backtracking, so the first ``limit``
    are the same.  An empty result certifies the obstruction for this
    family.
    """
    ids, pairs = p.base.ids(), p.base.strict_pairs()
    degree = {cid: 0 for cid in ids}
    for sub, sup in pairs:
        degree[sub] += 1
        degree[sup] += 1
    order = sorted(ids, key=lambda cid: (-degree[cid], cid))
    position = {cid: i for i, cid in enumerate(order)}
    arrows = [(position[sup], position[sub], p.restrictions[(sub, sup)]) for sub, sup in pairs]
    sizes = [len(p.fibers[cid]) for cid in order]
    return [{cid: choice[position[cid]] for cid in ids} for choice in solve_constraints(sizes, arrows, limit)]


# ---------------------------------------------------------------------------
# daseinisation


def _daseinise(p, v: MatrixStarAlgebra, outer: bool) -> np.ndarray:
    """Both daseinisations: the sum of the characters' projections P that
    overlap ``p`` (outer) or lie below it (inner), verified spectrally."""
    chars = gelfand_spectrum(v)
    name = "outer" if outer else "inner"
    pm = as_matrix(p, v.dim)
    tol = spectral_tol(v.tol)
    if not is_projection(pm, tol):
        raise DomainError(f"{name}_daseinisation expects a projection")
    q = np.zeros((v.dim, v.dim), dtype=complex)
    for chi in chars:
        if outer:
            keep = opnorm(chi.projection @ pm) > tol
        else:
            keep = opnorm(chi.projection @ pm - chi.projection) <= tol
        if keep:
            q = q + chi.projection
    gap = q - pm if outer else pm - q
    if np.linalg.eigvalsh((gap + dagger(gap)) / 2.0).min() < -SPECTRAL_FLOOR:
        failure = "dominate the input" if outer else "stay below the input"
        raise DomainError(f"{name} daseinisation failed to {failure}")
    return q


def outer_daseinisation(p, v: MatrixStarAlgebra) -> np.ndarray:
    """Smallest projection of the context dominating ``p``.

    Sum of the minimal projections with nonzero overlap; the result is
    verified to dominate ``p`` spectrally.
    """
    return _daseinise(p, v, outer=True)


def inner_daseinisation(p, v: MatrixStarAlgebra) -> np.ndarray:
    """Largest projection of the context dominated by ``p``."""
    return _daseinise(p, v, outer=False)


# ---------------------------------------------------------------------------
# ray-family fixtures


def _unit_rays(basis_vectors) -> np.ndarray:
    """A list of (unnormalized) vectors as unit rays, one row each.  Each
    norm is the one-vector ``np.linalg.norm``'s, bit for bit: the dot
    products of the real and of the imaginary parts, summed.  Refuses a
    zero vector."""
    vecs = np.asarray(basis_vectors, dtype=complex)
    vecs = vecs.reshape(len(vecs), -1 if len(vecs) else 0)
    re, im = vecs.real[:, None], vecs.imag[:, None]
    norms = np.sqrt((re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0, 0])
    if np.any(norms == 0):
        raise InputError("zero vector in ray fixture")
    return vecs / norms[:, None]


def load_ray_fixture(data) -> tuple:
    """Parse a ray-family fixture: {'dim': d, 'bases': [[vector, ...], ...]},
    as d and one float array ``(vectors, d)`` per basis, read by
    ``validation.number_rows``, which refuses a malformed vector by name."""
    dim = whole_number(member(data, "dim", "ray fixture"), "ray fixture dim", least=1)
    table, counts = number_rows(array(member(data, "bases", "ray fixture"), "ray fixture bases"), dim)
    return dim, np.split(table, np.cumsum(counts, dtype=int))[:-1]


def ray_family_context_category(dim: int, bases: list, tol: float = DEFAULT_TOL) -> ContextCategory:
    """One maximal context per basis of rays, plus intersections.  Refuses
    a dimension above ``staralg.DIM_CAP`` before building anything.

    A family of orthonormal bases is its own atoms: when every basis holds
    ``dim`` nonzero rays whose normalized Gram matrix is the identity within
    ``RANK_FLOOR`` (rounding, below every tolerance), the unit rays go to
    ``staralg._assemble`` as the atoms' isometries, with no split.  Any
    other family is split as groups of the unit rays' projectors by
    ``context_category_from_groups``, which refuses what no split stands
    for and decides at ``tol``."""
    check_dimension(dim)
    ambient = full_matrix_algebra(dim, tol)
    rays = [_unit_rays(basis) for basis in bases]
    if all(basis.shape == (dim, dim) for basis in rays):
        stack = np.array(rays).reshape(len(rays), dim, dim)
        gram = stack.conj() @ np.swapaxes(stack, 1, 2)
        if np.all(np.abs(gram - np.eye(dim)) <= RANK_FLOOR):
            return _assemble(ambient, [list(basis[:, :, None]) for basis in stack], [[] for _ in bases])
    return context_category_from_groups(ambient, [r[:, :, None] * r[:, None, :].conj() for r in rays])


def bundled_fixture(path: str):
    """Load the fixture shipped with the package whose name is the last
    component of ``path`` (e.g. 'cabello18.json'); ks-check reads it when
    ``path`` names no file."""
    name = os.path.basename(path)
    fixture = resources.files("ctxlab.data") / name
    if not fixture.is_file():
        raise InputError(f"no file {path!r} and no bundled fixture {name!r}")
    return load_json(fixture)
