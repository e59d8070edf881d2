"""Seeded inputs of the ctxlab benchmark: one batch of CLI checks per workload.

Inputs come from the standard library's ``random`` module, so a seed gives
the same files on any numpy version.  A check is one ``ctxlab`` argv plus
the verdict its report must meet; ``verdicts.py`` holds the verdict rules.
This module imports nothing from ``ctxlab``: the set-up time it adds is
only the time to generate and write the input files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

WORKLOADS = ("ks-carrier", "net-fock")

# ks-check stops a satisfiable family after this many sections; obstructed
# families are searched exhaustively whatever the limit.
KS_MAX_SECTIONS = 8
# The sub-family types are one unfiltered draw from this fixed seed; the
# workload seed then picks which concrete Peres tetrads realise each type.
KS_TYPE_SEED = 20200831
CABELLO18 = os.path.join("src", "ctxlab", "data", "cabello18.json")

PAULI = {
    "I": ((1, 0), (0, 1)),
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "Z": ((1, 0), (0, -1)),
}


def check(name: str, argv: list, kind: str, exit_code: int = 0, **expect) -> dict:
    """One CLI call and the verdict its report must meet."""
    return {"name": name, "argv": [str(a) for a in argv], "kind": kind,
            "exit_code": exit_code, "expect": expect}


def write_json(path: str, data) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, sort_keys=True)


# Each workload joins two of the batches below, 44 checks when full.  Each
# batch is built of four groups whose costs barely overlap: 8 cheap
# checks, 6 around the median, 5 around p75 (the net batch 3, the Fock
# batch 7) and 3 heavy ones.  The cost of every check depends on its
# shape, not on the seeded values.  A shared host slows single checks by
# up to half, at random, so a percentile that falls where costs rise
# steeply from rank to rank jumps with each slowed check.  So the middle groups of the Kochen-Specker, carrier and Fock
# batches are checks of about equal cost, and each percentile is the
# middle of a plateau of like checks; the net batch's middle groups lie
# below and above those plateaus.  ``build`` then shuffles every batch in
# one fixed order, so that each group is spread over the whole pass.
ORDER_SEED = 17


# ---------------------------------------------------------------------------
# Peres 24-ray set


def _canonical(vec) -> tuple:
    """The ray of an integer vector: first nonzero entry made positive."""
    vec = tuple(int(x) for x in vec)
    lead = next(x for x in vec if x)
    return vec if lead > 0 else tuple(-x for x in vec)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def peres_rays() -> list:
    """The sign and permutation patterns of 1000, 1100 and 1111, as rays."""
    rays = set()
    for pattern in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for perm in set(itertools.permutations(pattern)):
            for signs in itertools.product((1, -1), repeat=4):
                rays.add(_canonical(p * s for p, s in zip(perm, signs)))
    return sorted(rays)


def peres_tetrads() -> list:
    """The orthogonal tetrads of the Peres set, found by enumeration.

    Checks that there are 24 rays and 24 tetrads, that every tetrad is
    orthogonal, and that the rays and bases of the bundled ``cabello18``
    fixture are among them.
    """
    rays = peres_rays()
    tetrads = [t for t in itertools.combinations(rays, 4)
               if all(_dot(a, b) == 0 for a, b in itertools.combinations(t, 2))]
    if len(rays) != 24 or len(tetrads) != 24:
        raise RuntimeError(f"Peres set has {len(rays)} rays and {len(tetrads)} tetrads, not 24 and 24")
    for t in tetrads:
        if any(_dot(a, b) != 0 for a, b in itertools.combinations(t, 2)):
            raise RuntimeError(f"tetrad {t} is not orthogonal")
    with open(CABELLO18) as handle:
        cabello = json.load(handle)
    bases = [tuple(sorted(_canonical(v) for v in basis)) for basis in cabello["bases"]]
    cab_rays = {r for basis in bases for r in basis}
    if len(bases) != 9 or len(cab_rays) != 18:
        raise RuntimeError("cabello18 does not have 9 bases over 18 rays")
    if not cab_rays <= set(rays) or not set(bases) <= set(tetrads):
        raise RuntimeError("cabello18 is not a subset of the Peres set")
    return tetrads


def _peres_symmetry(rng: random.Random):
    """A random signed permutation of the coordinates; it maps the Peres
    rays, and so its tetrads, onto themselves."""
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((1, -1)) for _ in range(4)]
    return lambda ray: _canonical(signs[i] * ray[perm[i]] for i in range(4))


def _ks_types(sizes: list) -> list:
    """Index sets of Peres tetrads, one per size: a fixed unfiltered draw."""
    rng = random.Random(KS_TYPE_SEED)
    return [sorted(rng.sample(range(24), k)) for k in sizes]


def ks_sweep(seed: int, size: str, out: str) -> list:
    """cabello18, the Peres set, and Peres sub-families of 6-17 bases."""
    tetrads = peres_tetrads()
    rng = random.Random(seed)
    write_json(os.path.join(out, "peres24.json"), {"dim": 4, "bases": [list(map(list, t)) for t in tetrads]})
    checks = []
    if size == "full":
        checks.append(check("ks:cabello18", ["ks-check", "--fixture", "cabello18.json",
                                             "--max-sections", KS_MAX_SECTIONS],
                            "ks", fixture=CABELLO18, obstructed=True))
        checks.append(check("ks:peres24", ["ks-check", "--fixture", os.path.join(out, "peres24.json"),
                                           "--max-sections", KS_MAX_SECTIONS],
                            "ks", fixture=os.path.join(out, "peres24.json"), obstructed=True))
        types = _ks_types([k for k in range(6, 13) for _ in range(4)] + list(range(13, 23)))
        # Cheap: the 8 types of 6 and 7 bases.  Median: the 4 types of 12
        # bases, two of them twice.  p75: the types of 16 and 17 bases,
        # three and two times.  Heavy: cabello18, Peres-24, and the type of
        # 15 bases, the slowest of the draw.  Each repeat of a type gets
        # its own symmetry.
        picks = list(range(8)) + [24, 25, 26, 27, 24, 25] + [31, 32, 31, 32, 31] + [30]
        types = [types[t] for t in picks]
    else:
        types = _ks_types([3, 4, 5])
    known = set(tetrads)
    for n, idx in enumerate(types):
        symmetry = _peres_symmetry(rng)
        bases = []
        for i in idx:
            rays = [symmetry(r) for r in tetrads[i]]
            if tuple(sorted(rays)) not in known:
                raise RuntimeError("symmetry left the Peres set")
            bases.append([list(r) for r in rays])
        path = os.path.join(out, f"family{n:02d}.json")
        write_json(path, {"dim": 4, "bases": bases})
        checks.append(check(f"ks:family{n:02d}/{len(idx)}", ["ks-check", "--fixture", path,
                                                            "--max-sections", KS_MAX_SECTIONS],
                            "ks", fixture=path))
    return checks


# ---------------------------------------------------------------------------
# nets on a chain of qubits


def _kron_rows(mat: list, p) -> list:
    return [[a * b for a in row for b in prow] for row in mat for prow in p]


def pauli_json(labels: dict, length: int) -> list:
    """Matrix JSON of the Pauli string with ``labels[site]`` at its sites."""
    mat = [[1]]
    for site in range(length):
        mat = _kron_rows(mat, PAULI[labels.get(site, "I")])
    return [[[float(complex(x).real), float(complex(x).imag)] for x in row] for row in mat]


def anticommute(p: dict, q: dict) -> bool:
    """Pauli strings anticommute iff they differ at an odd number of shared sites."""
    return sum(1 for s in p if s in q and p[s] != q[s]) % 2 == 1


def _intervals(length: int) -> list:
    return [(a, b) for a in range(length) for b in range(a, length)]


def custom_net(rng: random.Random, counts: tuple, extras: bool, leak: tuple | None) -> tuple:
    """A net spec on all intervals of a chain, generated by Pauli strings.

    Site ``j`` gets ``counts[j]`` random single-site Paulis; with ``extras``
    every longer interval also gets a two-site string on its first two
    sites, made of Paulis that differ from each site's first one, so the
    algebra sizes depend on ``counts`` only.  Each region is
    generated by the generators of the regions inside it plus its own, so
    isotony holds by construction.  A ``leak`` (s, t) gives the region at
    site s a Pauli on site t that anticommutes with site t's own algebra,
    which breaks locality for every disjoint pair it reaches.  Returns the
    spec and the (left, right) region labels whose algebras must fail to
    commute.
    """
    length = len(counts)
    own = {(a, a): [{a: p} for p in rng.sample("XYZ", counts[a])] for a in range(length)}

    def other(site):
        return rng.choice([p for p in "XYZ" if p != own[(site, site)][0][site]])

    for a, b in _intervals(length):
        if a < b:
            own[(a, b)] = [{a: other(a), a + 1: other(a + 1)}] if extras else []
    if leak:
        s, t = leak
        own[(s, s)].append({t: other(t)})
    gens = {}
    for a, b in sorted(_intervals(length), key=lambda r: r[1] - r[0]):
        found = {}
        for c, d in _intervals(length):
            if a <= c and d <= b and (c, d) != (a, b):
                for g in gens[(c, d)]:
                    found[tuple(sorted(g.items()))] = g
        for g in own[(a, b)]:
            found[tuple(sorted(g.items()))] = g
        gens[(a, b)] = [found[k] for k in sorted(found)]
    spec = {"length": length, "regions": [
        {"start": a, "stop": b, "generators": [pauli_json(g, length) for g in gens[(a, b)]]}
        for a, b in _intervals(length)]}
    clashes = sorted(
        (f"[{l[0]},{l[1]}]", f"[{r[0]},{r[1]}]")
        for l, r in itertools.combinations(sorted(gens), 2)
        if (l[1] < r[0] or r[1] < l[0])
        and any(anticommute(p, q) for p in gens[l] for q in gens[r]))
    return spec, clashes


def net_chain(seed: int, size: str, out: str) -> list:
    rng = random.Random(seed)
    if size == "full":
        # Fixed shapes, so the cost does not change with the seed; the seed
        # draws the Paulis.  Cheap: 8 nets with one Pauli on most sites,
        # half of them leaking.  Median: chain 3 and 5 nets of 3 sites.
        # p75: chain 4, a leaking net of shape (2, 2, 2) and a net of 4
        # sites.  Heavy: chain 5 and two nets of 4 sites, one leaking.
        chains = [3, 4, 5]
        cheap = [((1, 1, 1), False, None), ((2, 1, 1), False, None), ((1, 1, 2), False, None),
                 ((1, 2, 1), False, None), ((1, 1, 1), False, (0, 2)), ((1, 1, 1), False, (2, 0)),
                 ((1, 1, 2), False, (0, 2)), ((2, 1, 1), False, (2, 0))]
        median = [((2, 2, 2), True, None), ((2, 1, 2), False, (2, 0)), ((2, 1, 2), False, (0, 2)),
                  ((1, 1, 2), True, None), ((1, 2, 1), True, None)]
        p75 = [((2, 2, 2), False, (2, 1)), ((1, 1, 1, 1), False, None)]
        heavy = [((2, 1, 1, 1), False, None), ((1, 2, 1, 1), False, (0, 3))]
        plan = cheap + median + p75 + heavy
    else:
        chains = [2, 3]
        plan = [((1, 2), True, None), ((2, 1), True, (0, 1))]
    checks = [check(f"net:chain{c}", ["net-check", "--chain", c], "net-standard", chain=c) for c in chains]
    for n, (counts, extras, leak) in enumerate(plan):
        spec, clashes = custom_net(rng, counts, extras, leak)
        length = len(counts)
        path = os.path.join(out, f"net{n:02d}.json")
        write_json(path, spec)
        checks.append(check(f"net:custom{n:02d}/{length}{'-leak' if clashes else ''}",
                            ["net-check", "--net", path], "net-custom",
                            exit_code=1 if clashes else 0, clashes=clashes))
    return checks


# ---------------------------------------------------------------------------
# the truncated Fock sector


def fock_sector(seed: int, size: str, out: str) -> list:
    rng = random.Random(seed)
    # (m, n, nmax, trials) at Fock dimensions 165, 220, 495, 715 and 969
    if size == "full":
        # cheap: 165 and 220; median: 495; p75: 715; heavy: 969 and the
        # sweeps.  The p75 group has 7 checks, the net batch's 3.
        ccr = [(2, 3, 3, 2)] * 4 + [(3, 2, 3, 2)] * 4 + [(2, 3, 4, 1)] * 6 + [(3, 2, 4, 1)] * 7 + [(2, 4, 3, 1)]
        # cutoffs over 4 modes: every cutoff up to Fock dimension 330, and
        # every other one up to 1001
        sweeps = [range(2, 8), range(2, 11, 2)]
    else:
        ccr = [(2, 2, 2, 1)] * 2
        sweeps = [range(2, 4), range(2, 5)]
    checks = []
    for n, (m, faces, nmax, trials) in enumerate(ccr):
        checks.append(check(f"gft:ccr{n:02d}/{math.comb(m**faces + nmax, nmax)}",
                            ["--seed", rng.randrange(10**6), "gft-ccr", "--m", m, "--n", faces,
                             "--nmax", nmax, "--trials", trials], "gft-ccr", trials=trials))
    for n, cutoffs in enumerate(map(list, sweeps)):
        checks.append(check(f"gft:weyl{n:02d}/{math.comb(4 + cutoffs[-1], 4)}",
                            ["--seed", rng.randrange(10**6), "gft-weyl", "--m", 2, "--n", 2,
                             "--sweep", ",".join(map(str, cutoffs)), "--norm", 2.0],
                            "gft-weyl", cutoffs=cutoffs))
    return checks


# ---------------------------------------------------------------------------
# product-carrier extension, limits and the realism bound


def _random_state(rng: random.Random, dim: int) -> list:
    """JSON of a random full-rank density matrix: A A† over its trace."""
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)] for _ in range(dim)]
    rho = [[sum(a[i][k] * a[j][k].conjugate() for k in range(dim)) for j in range(dim)] for i in range(dim)]
    tr = sum(rho[i][i].real for i in range(dim))
    return [[[rho[i][j].real / tr, rho[i][j].imag / tr] for j in range(dim)] for i in range(dim)]


def _two_qubit_algebra(names: list) -> dict:
    return {"dim": 4, "seeds": {n: pauli_json({0: n[0], 1: n[1]}, 2) for n in names}}


def _inequality_family(rng: random.Random, sizes: tuple, provider: str) -> dict:
    """Groups of random +/-1 observables, of the given odd sizes."""
    groups = []
    if provider == "measure":
        points = 32
        for k in sizes:
            obs = [{"type": "carrier", "values": [rng.choice((1, -1)) for _ in range(points)]} for _ in range(k)]
            groups.append({"A": obs[: (k + 1) // 2], "B": obs[(k + 1) // 2:]})
        return {"groups": groups, "carrier_weights": [rng.random() + 0.05 for _ in range(points)]}
    strings = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
    for k in sizes:
        obs = []
        for _ in range(k):
            name = rng.choice(strings)
            sign = rng.choice((1, -1))
            mat = pauli_json({0: name[0], 1: name[1]}, 2)
            obs.append({"type": "matrix", "matrix": [[[sign * re, sign * im] for re, im in row] for row in mat]})
        groups.append({"A": obs[: (k + 1) // 2], "B": obs[(k + 1) // 2:]})
    return {"groups": groups, "state": _random_state(rng, 4)}


def carrier_extend(seed: int, size: str, out: str) -> list:
    """Fixed Pauli seed families; the workload seed draws the states and the
    realism observables."""
    rng = random.Random(seed)
    family = ["ZI", "XI", "YI", "IZ", "IX"]
    if size == "full":
        # The whole family has a 262,144-point carrier.  Cheap: five of its
        # subsets of three, one of four, and two limits of two seeds.
        # Median: six inequalities of 12 observables in 10 groups.  p75:
        # five of 14 observables in 4 groups.  Heavy: the whole family, a
        # limit of three seeds, and an inequality of 16 observables.  The
        # sign search visits 2**n sign vectors and evaluates each group on
        # each, so a median check costs about what a 12-basis
        # Kochen-Specker family does, and a p75 check what one of 16-17
        # bases does.
        extend = [family] + [list(c) for c in itertools.combinations(family, 3)][::2] + [family[:4]]
        limits = [["ZI", "IZ", "XI"], ["ZI", "XI"], ["XI", "IX"]]
        groups = [(3, 3, 3, 3, 3, 1)] + [(3,) + (1,) * 9] * 6 + [(5, 3, 3, 3)] * 5
    else:
        extend, limits, groups = [["ZI", "IZ", "XI"]], [["ZI", "XI"]], [(3, 1, 1)] * 2
    checks = []
    for n, names in enumerate(extend):
        alg = os.path.join(out, f"algebra{n:02d}.json")
        state = os.path.join(out, f"state{n:02d}.json")
        write_json(alg, _two_qubit_algebra(names))
        write_json(state, _random_state(rng, 4))
        checks.append(check(f"ext:state{n:02d}/{len(names)}",
                            ["state-extend", "--algebra", alg, "--seeds", ",".join(names), "--state", state],
                            "state-extend"))
    for n, names in enumerate(limits):
        alg = os.path.join(out, f"limit{n:02d}.json")
        write_json(alg, _two_qubit_algebra(names))
        checks.append(check(f"ext:limit{n:02d}/{len(names)}",
                            ["--apex-bound", 3, "limit", "--algebra", alg, "--seeds", ",".join(names),
                             "--restrictions", "--check-universal"], "limit"))
    for n, sizes in enumerate(groups):
        provider = ("measure", "quantum")[n % 2]
        total = sum(sizes)
        path = os.path.join(out, f"observables{n:02d}.json")
        write_json(path, _inequality_family(rng, sizes, provider))
        checks.append(check(f"ext:inequality{n:02d}/{provider}{total}x{len(sizes)}",
                            ["--sign-cap", 16, "inequality", "--family", path, "--provider", provider],
                            "inequality", provider=provider, total=total))
    return checks


# Each workload joins two batches whose groups cost about the same, so the
# joined groups line up: 16 cheap checks, 12 around the median (sorted
# ranks 17-28), 10 around p75 (ranks 29-38) and 6 heavy ones.
BUILDERS = {"ks-carrier": (ks_sweep, carrier_extend), "net-fock": (net_chain, fock_sector)}


def build(workload: str, seed: int, size: str, out: str) -> list:
    """Write the workload's input files under ``out`` and return its batch."""
    os.makedirs(out, exist_ok=True)
    batch = [check for builder in BUILDERS[workload] for check in builder(seed, size, out)]
    random.Random(ORDER_SEED).shuffle(batch)
    return batch
