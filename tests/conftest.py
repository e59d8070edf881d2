import contextlib
import functools
import importlib.util
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
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


def unsplit_seed():
    """``U diag(1, 1 + 5e-9, -1) U^H``, U the Q factor of a 3 x 3 complex
    Gaussian from ``default_rng(7)``: one seed, so it commutes, whose gap
    of 5e-9 is grouped (below 1e-8) yet breaks the character bound (1e-9),
    so no split of it stands."""
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    return u @ np.diag([1.0, 1.0 + 5e-9, -1.0]) @ u.conj().T


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


def validate_algebra(alg):
    """Unitality and closure under adjoint and product of a
    ``MatrixStarAlgebra``, each defect reported by kind, naming the basis
    elements."""
    from ctxlab.linalg import dagger
    from ctxlab.validation import ValidationReport

    report = ValidationReport()
    if not alg.contains(np.eye(alg.dim, dtype=complex)):
        report.add("algebra.unit", "identity matrix not in span")
    for i, a in enumerate(alg.basis):
        if not alg.contains(dagger(a)):
            report.add("algebra.adjoint", f"adjoint of basis element {i} leaves span")
        for j, b in enumerate(alg.basis):
            if not alg.contains(a @ b):
                report.add("algebra.product", f"product of basis elements ({i},{j}) leaves span")
    return report


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


@pytest.fixture(scope="module")
def repository_root():
    """Run the module in the repository root: the benchmark's workloads
    open the bundled ``cabello18`` by its path from there."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(ROOT)
        yield ROOT


@functools.cache
def perfbench_module(name):
    """A module of the benchmark harness, loaded from its file under
    ``perfbench/``; the harness stays read-only to the tests."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def leg_labels(d, cone) -> dict:
    """The cone's legs read as labels: object -> apex element -> the
    element of the object's carrier that the element's leg picks."""
    return {o: {a: d.carriers[o][p] for a, p in zip(cone.apex, cone.legs[:, i].tolist())}
            for i, o in enumerate(d.index.objects)}


@contextlib.contextmanager
def counted_splits():
    """``staralg._split`` counting its calls: inside the block, each call
    appends the number of matrices in the stack it splits to the yielded
    list."""
    from ctxlab import staralg

    calls, split = [], staralg._split

    def counting(stack, *args):
        calls.append(len(stack))
        return split(stack, *args)

    staralg._split = counting
    try:
        yield calls
    finally:
        staralg._split = split
