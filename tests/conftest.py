import functools
import importlib.util
import pathlib

import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def random_selfadjoint(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


def random_projection(rng, d, rank):
    u = random_unitary(rng, d)
    cols = u[:, :rank]
    return cols @ cols.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def reference_occupations(modes, n_max) -> list:
    """The occupation tuples of a truncated Fock basis, in its state order:
    by total count, then ascending."""
    occs: list = []

    def fill(prefix, remaining, budget):
        if remaining == 0:
            occs.append(tuple(prefix))
            return
        for k in range(budget + 1):
            fill(prefix + [k], remaining - 1, budget - k)

    for total in range(n_max + 1):
        start = len(occs)
        fill([], modes, total)
        occs[start:] = [o for o in occs[start:] if sum(o) == total]
    return occs


def reference_index(fock) -> dict:
    """Occupation tuple -> position of that state in ``fock``'s basis."""
    return {occ: i for i, occ in enumerate(reference_occupations(fock.modes, fock.n_max))}


@functools.cache
def perfbench_module(name):
    """A module of the benchmark harness, loaded from its file under
    ``perfbench/``; the harness stays read-only to the tests."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
