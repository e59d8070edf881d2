"""The limit extension of a context family and its product-measure states.

The extension carrier is the product of the context character spaces; its
function algebra contains every context through component-wise embedding,
and any density matrix extends to a product measure whose marginals are
the Born weights.  Evaluation of embedded observables then reproduces the
ambient expectation values exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DomainError, InputError
from .fincat import Diagram, FinCategory, discrete_category
from .linalg import as_matrix, dagger, opnorm
from .staralg import ContextCategory, dominating_character_index

CARRIER_CAP = 10**6


@dataclass
class ProductSpectrum:
    """All tuples of characters, one per context, in context order."""

    context_ids: list
    sizes: list
    points: list
    component: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.component:
            # points run in itertools.product order: the last context varies fastest
            for pos, cid in enumerate(self.context_ids):
                column = np.repeat(np.arange(self.sizes[pos], dtype=int), math.prod(self.sizes[pos + 1 :]))
                self.component[cid] = np.tile(column, math.prod(self.sizes[:pos]))

    @property
    def size(self) -> int:
        return len(self.points)

    def position(self, ctx_id: str) -> int:
        return self.context_ids.index(ctx_id)


@dataclass
class Element:
    """A dense complex-valued function on the carrier points."""

    carrier: ProductSpectrum
    values: np.ndarray

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.carrier is not self.carrier and other.carrier.points != self.carrier.points:
                raise DomainError("elements live on different carriers")
            return other.values
        return complex(other)

    def __mul__(self, other):
        return Element(self.carrier, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return Element(self.carrier, self.values + self._coerce(other))

    def __sub__(self, other):
        return Element(self.carrier, self.values - self._coerce(other))

    def conj(self) -> "Element":
        return Element(self.carrier, self.values.conj())


@dataclass
class ExtendedAlgebra:
    """Function algebra on the product of the context character spaces."""

    cc: ContextCategory
    carrier: ProductSpectrum
    spectra: dict

    def unit(self) -> Element:
        return Element(self.carrier, np.ones(self.carrier.size, dtype=complex))

    def element(self, values) -> Element:
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (self.carrier.size,):
            raise InputError(f"element needs {self.carrier.size} values, got {vals.shape}")
        return Element(self.carrier, vals)

    def restricted(self, sub_ids: list) -> "ExtendedAlgebra":
        """Extension over a sub-family of contexts, reusing computed spectra."""
        missing = [c for c in sub_ids if c not in self.carrier.context_ids]
        if missing:
            raise InputError(f"unknown contexts {missing}")
        sizes = [len(self.spectra[c]) for c in sub_ids]
        points = list(itertools.product(*[range(s) for s in sizes]))
        carrier = ProductSpectrum(list(sub_ids), sizes, points)
        return ExtendedAlgebra(self.cc, carrier, {c: self.spectra[c] for c in sub_ids})


@dataclass
class ExtendedState:
    """A probability weight per carrier point, extending a density matrix."""

    carrier: ProductSpectrum
    weights: np.ndarray
    source: np.ndarray
    marginals: dict


def build_limit_extension(cc: ContextCategory, cap: int = CARRIER_CAP) -> ExtendedAlgebra:
    """Carrier = product of the context character spaces; refuses above cap."""
    ids = cc.ids()
    spectra = {cid: cc.spectrum(cid) for cid in ids}
    sizes = [len(spectra[cid]) for cid in ids]
    total = 1
    for s in sizes:
        total *= s
    if total > cap:
        raise CapExceeded("product carrier", total, cap)
    points = list(itertools.product(*[range(s) for s in sizes]))
    return ExtendedAlgebra(cc, ProductSpectrum(ids, sizes, points), spectra)


def embed(a, ctx_id: str, ext: ExtendedAlgebra) -> Element:
    """Component-wise embedding: the value at a point is the context
    character's value on ``a``; a unital *-homomorphism on that context."""
    alg = ext.cc.algebra(ctx_id)
    m = as_matrix(a, alg.dim)
    if not alg.contains(m):
        raise DomainError(f"matrix lies outside the span of context {ctx_id}")
    char_values = np.array([chi.value_of(m) for chi in ext.spectra[ctx_id]])
    return Element(ext.carrier, char_values[ext.carrier.component[ctx_id]])


def extend_state(rho, ext: ExtendedAlgebra) -> ExtendedState:
    """Product measure of the per-context Born marginals of ``rho``."""
    dim = ext.cc.ambient.dim
    r = as_matrix(rho, dim)
    if opnorm(r - dagger(r)) > 1e-8:
        raise DomainError("state is not self-adjoint")
    if abs(np.trace(r) - 1.0) > 1e-8:
        raise DomainError("state does not have unit trace")
    if np.linalg.eigvalsh((r + dagger(r)) / 2.0).min() < -1e-8:
        raise DomainError("state is not positive semidefinite")

    marginals = {}
    for cid in ext.carrier.context_ids:
        weights = np.array(
            [float(np.trace(r @ chi.projection).real) for chi in ext.spectra[cid]]
        )
        marginals[cid] = np.clip(weights, 0.0, None)
    total = np.ones(ext.carrier.size)
    for cid in ext.carrier.context_ids:
        total = total * marginals[cid][ext.carrier.component[cid]]
    return ExtendedState(ext.carrier, total, r, marginals)


def evaluate_state(mu: ExtendedState, e: Element) -> complex:
    """Finite integral: sum of element values against the point weights."""
    if e.carrier is not mu.carrier and e.carrier.points != mu.carrier.points:
        raise DomainError("element and state live on different carriers")
    return complex(np.dot(e.values, mu.weights))


def point_valuation(a, v1: str, v2: str, x, ext: ExtendedAlgebra) -> tuple:
    """Values of ``a`` at point ``x`` read through two different contexts.

    ``x`` is a carrier point (tuple of character indices) or its position.
    The pair may differ: the extension separates (A, V1) from (A, V2).
    """
    e1 = embed(a, v1, ext)
    e2 = embed(a, v2, ext)
    if isinstance(x, int):
        idx = x
    else:
        try:
            idx = ext.carrier.points.index(tuple(x))
        except ValueError as exc:
            raise DomainError(f"point {x!r} is not in the carrier") from exc
    return complex(e1.values[idx]), complex(e2.values[idx])


def marginalize_state(mu: ExtendedState, ext: ExtendedAlgebra, sub_ext: ExtendedAlgebra) -> ExtendedState:
    """Push a state forward onto the extension of a sub-family of contexts."""
    positions = [ext.carrier.position(c) for c in sub_ext.carrier.context_ids]
    index = {pt: i for i, pt in enumerate(sub_ext.carrier.points)}
    weights = np.zeros(sub_ext.carrier.size)
    for pt, w in zip(ext.carrier.points, mu.weights):
        weights[index[tuple(pt[p] for p in positions)]] += w
    marginals = {c: mu.marginals[c] for c in sub_ext.carrier.context_ids}
    return ExtendedState(sub_ext.carrier, weights, mu.source, marginals)


# ---------------------------------------------------------------------------
# JSON views


def carrier_to_json(ext: ExtendedAlgebra) -> list:
    """Carrier points as {context id: character index} records."""
    ids = ext.carrier.context_ids
    return [dict(zip(ids, pt)) for pt in ext.carrier.points]


def state_to_json(mu: ExtendedState) -> dict:
    return {
        "weights": np.round(mu.weights, 14).tolist(),
        "marginals": {cid: np.round(marg, 14).tolist() for cid, marg in mu.marginals.items()},
    }


def element_to_json(e: Element) -> list:
    return [[float(np.round(v.real, 14)), float(np.round(v.imag, 14))] for v in e.values]


# ---------------------------------------------------------------------------
# bridge to the finite-category engine


def _restriction_index_category(cc: ContextCategory) -> FinCategory:
    """Index category with one arrow sup -> sub per strict inclusion sub <= sup."""
    ids = cc.ids()
    homs: dict = {}
    identities = {}
    compose: dict = {}

    def label(a, b):
        return f"id_{a}" if a == b else f"{a}->{b}"

    def arrow(a, b):
        return a == b or cc.leq(b, a)

    for a in ids:
        identities[a] = label(a, a)
        for b in ids:
            if arrow(a, b):
                homs.setdefault((a, b), []).append(label(a, b))
    for a in ids:
        for b in ids:
            if not arrow(a, b):
                continue
            for c in ids:
                if arrow(b, c):
                    compose[(label(b, c), label(a, b))] = label(a, c)
    return FinCategory(ids, homs, compose, identities)


def spectrum_diagram(ext: ExtendedAlgebra, with_restrictions: bool = False) -> Diagram:
    """The context spectra as a concrete diagram.

    Discrete by default (its limit is the full product carrier); with
    restriction arrows the limit is the compatible-tuple subset.
    """
    ids = ext.carrier.context_ids
    carriers = {cid: list(range(len(ext.spectra[cid]))) for cid in ids}
    if not with_restrictions:
        return Diagram(discrete_category(ids), carriers)
    index = _restriction_index_category(ext.cc)
    maps = {}
    for sub, sup in ext.cc.strict_pairs():
        table = {
            i: dominating_character_index(chi, ext.spectra[sub], ext.cc.ambient.tol)
            for i, chi in enumerate(ext.spectra[sup])
        }
        maps[f"{sup}->{sub}"] = table
    return Diagram(index, carriers, maps)
