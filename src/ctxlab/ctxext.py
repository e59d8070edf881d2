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
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DomainError
from .fincat import Diagram, discrete_category, poset_category
from .linalg import as_matrix, require_state
from .staralg import ContextCategory

CARRIER_CAP = 10**6


@dataclass
class ProductSpectrum:
    """All tuples of characters, one per context, in context order.

    Only the sizes are stored: a point's position is its mixed-radix index
    (C order, the last context varying fastest, as in ``itertools.product``).
    """

    context_ids: list
    sizes: list

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    @property
    def points(self) -> list:
        return list(itertools.product(*[range(s) for s in self.sizes]))


@dataclass
class Element:
    """A dense complex-valued function on the carrier points."""

    carrier: ProductSpectrum
    values: np.ndarray


@dataclass
class ExtendedAlgebra:
    """Function algebra on the product of the context character spaces,
    which ``cc.spectra`` holds."""

    cc: ContextCategory
    carrier: ProductSpectrum


@dataclass
class ExtendedState:
    """A probability weight per carrier point, extending a density matrix."""

    carrier: ProductSpectrum
    weights: np.ndarray
    marginals: dict


def build_limit_extension(cc: ContextCategory, cap: int = CARRIER_CAP) -> ExtendedAlgebra:
    """Carrier = product of the context character spaces; refuses above cap."""
    ids = cc.ids()
    carrier = ProductSpectrum(ids, [len(cc.spectra[cid]) for cid in ids])
    if carrier.size > cap:
        raise CapExceeded("product carrier", carrier.size, cap)
    return ExtendedAlgebra(cc, carrier)


def embed(a, ctx_id: str, ext: ExtendedAlgebra) -> Element:
    """Component-wise embedding: the value at a point is the context
    character's value on ``a``; a unital *-homomorphism on that context.
    ``a`` must lie in the context's span (``contains``)."""
    alg = ext.cc.algebra(ctx_id)
    m = as_matrix(a, alg.dim)
    if not alg.contains(m):
        raise DomainError(f"matrix lies outside the span of context {ctx_id}")
    char_values = np.array([chi.value_of(m) for chi in ext.cc.spectra[ctx_id]])
    axis = [1] * len(ext.carrier.sizes)
    axis[ext.carrier.context_ids.index(ctx_id)] = len(char_values)
    return Element(ext.carrier, np.broadcast_to(char_values.reshape(axis), ext.carrier.sizes).flatten())


def extend_state(rho, ext: ExtendedAlgebra) -> ExtendedState:
    """Product measure of the per-context Born marginals of ``rho``."""
    r = require_state(rho, ext.cc.ambient.dim)
    marginals = {}
    for cid in ext.carrier.context_ids:
        weights = np.array(
            [float(np.trace(r @ chi.projection).real) for chi in ext.cc.spectra[cid]]
        )
        marginals[cid] = np.clip(weights, 0.0, None)
    total = np.ones(())
    for cid in ext.carrier.context_ids:
        total = np.multiply.outer(total, marginals[cid])
    return ExtendedState(ext.carrier, total.ravel(), marginals)


def evaluate_state(mu: ExtendedState, e: Element) -> complex:
    """Finite integral over every point, with no BLAS call or complex copy of the weights."""
    if e.carrier is not mu.carrier and e.carrier.sizes != mu.carrier.sizes:
        raise DomainError("element and state live on different carriers")
    return complex(np.einsum("i,i->", e.values, mu.weights))


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


# ---------------------------------------------------------------------------
# bridge to the finite-category engine


def spectrum_diagram(ext: ExtendedAlgebra, with_restrictions: bool = False) -> Diagram:
    """The context spectra as a concrete diagram.

    Discrete by default (its limit is the full product carrier); with
    restriction arrows sup -> sub, mapped by the category's restriction
    tables, the limit is the compatible-tuple subset.  The carrier's
    contexts are those of the category.
    """
    ids = ext.carrier.context_ids
    carriers = {cid: list(range(len(ext.cc.spectra[cid]))) for cid in ids}
    if not with_restrictions:
        return Diagram(discrete_category(ids), carriers)
    index = poset_category(ids, lambda a, b: ext.cc.leq(b, a))
    maps = {index.homs[(sup, sub)][0]: table for (sub, sup), table in ext.cc.restrictions.items()}
    return Diagram(index, carriers, maps)
