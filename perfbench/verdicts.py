"""Verdict rules: what each check's report must say.

Every rule takes the check, its exit status and its parsed JSON report, and
returns a list of problems; an empty list is a pass.  The thresholds are
the ones the program itself uses (1e-10 for the CCR defect, 1e-8 for the
state-extension defect).  ``KsOracle`` recounts global sections of a ray
family in exact integer arithmetic, independently of ``ctxlab``.
"""

from __future__ import annotations

import itertools
import json
import re

LOCALITY = re.compile(r"^\[net\.locality\] basis elements \d+ of (\[\d+,\d+\]) and \d+ of (\[\d+,\d+\]) do not commute$")


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class KsOracle:
    """Global sections of a ray family, counted without ``ctxlab``.

    A section picks one ray per basis.  Two bases constrain each other
    through the atoms of their intersection algebra, which are the
    connected components of the graph joining each ray of one basis to
    every ray of the other that it is not orthogonal to: the two picks
    must lie in one component.  ``count`` stops at ``limit``.
    """

    def __init__(self, bases: list):
        self.bases = [[tuple(int(x) for x in v) for v in basis] for basis in bases]
        n = len(self.bases)
        self.allowed = {}
        for i, j in itertools.combinations(range(n), 2):
            comp = self._components(self.bases[i], self.bases[j])
            if len(set(comp.values())) > 1:
                self.allowed[(i, j)] = {(a, b) for a in range(4) for b in range(4)
                                        if comp[("a", a)] == comp[("b", b)]}

    @staticmethod
    def _components(left: list, right: list) -> dict:
        parent = {("a", a): ("a", a) for a in range(len(left))}
        parent.update({("b", b): ("b", b) for b in range(len(right))})

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, u in enumerate(left):
            for b, v in enumerate(right):
                if _dot(u, v) != 0:
                    parent[find(("a", a))] = find(("b", b))
        return {x: find(x) for x in parent}

    def count(self, limit: int) -> int:
        n = len(self.bases)
        links = {i: set() for i in range(n)}
        for i, j in self.allowed:
            links[i].add(j)
            links[j].add(i)
        order = [max(range(n), key=lambda i: (len(links[i]), -i))]
        while len(order) < n:
            placed = set(order)
            order.append(max((i for i in range(n) if i not in placed),
                             key=lambda i: (len(links[i] & placed), len(links[i]), -i)))
        pick = {}
        found = 0

        def extend(k: int) -> bool:
            nonlocal found
            if k == n:
                found += 1
                return found >= limit
            i = order[k]
            for a in range(len(self.bases[i])):
                if all((pick[j], a) in self.allowed[(j, i)] if j < i else (a, pick[j]) in self.allowed[(i, j)]
                       for j in links[i] if j in pick):
                    pick[i] = a
                    if extend(k + 1):
                        return True
                    del pick[i]
            return False

        extend(0)
        return found


def _ks_tables(fixture: str) -> dict:
    """Restriction tables of the family, built by the program under test."""
    from ctxlab import presheaf

    with open(fixture) as handle:
        dim, bases = presheaf.load_ray_fixture(json.load(handle))
    cc = presheaf.ray_family_context_category(dim, bases)
    sheaf = presheaf.build_spectral_presheaf(cc)
    return {"fibers": {cid: len(f) for cid, f in sheaf.fibers.items()}, "restrictions": sheaf.restrictions}


class Verdicts:
    """Verdict rules, with per-family caches so repeated checks stay cheap."""

    def __init__(self):
        self._oracle = {}
        self._tables = {}

    def problems(self, check: dict, status: int, report) -> list:
        if status != check["exit_code"]:
            return [f"exit status {status}, expected {check['exit_code']}"]
        if report is None:
            return ["report is not JSON"]
        return getattr(self, "_" + check["kind"].replace("-", "_"))(check, report)

    def _ks(self, check, report) -> list:
        fixture = check["expect"]["fixture"]
        limit = int(check["argv"][check["argv"].index("--max-sections") + 1])
        if fixture not in self._oracle:
            with open(fixture) as handle:
                self._oracle[fixture] = KsOracle(json.load(handle)["bases"]).count(limit)
        count = self._oracle[fixture]
        problems = []
        if check["expect"].get("obstructed") and count:
            problems.append(f"oracle finds {count} sections on a family expected to be obstructed")
        if report["sections"] != count or report["obstructed"] != (count == 0):
            problems.append(f"report has {report['sections']} sections, oracle {count} (limit {limit})")
        if len(report["assignments"]) != report["sections"]:
            problems.append("assignment count differs from the section count")
        if report["assignments"]:
            if fixture not in self._tables:
                self._tables[fixture] = _ks_tables(fixture)
            tables = self._tables[fixture]
            seen = set()
            for section in report["assignments"]:
                key = tuple(sorted(section.items()))
                if key in seen:
                    problems.append("a section is reported twice")
                seen.add(key)
                if set(section) != set(tables["fibers"]) or any(
                        not 0 <= section[c] < tables["fibers"][c] for c in section):
                    problems.append("a section does not pick one character per context")
                    continue
                bad = [(sub, sup) for (sub, sup), table in tables["restrictions"].items()
                       if table[section[sup]] != section[sub]]
                if bad:
                    problems.append(f"a section breaks the restriction {bad[0][1]} -> {bad[0][0]}")
        return problems

    def _net_standard(self, check, report) -> list:
        c = check["expect"]["chain"]
        want = {"chain": c, "regions": c * (c + 1) // 2, "isotony": True, "locality": True,
                "lc_squares": True, "covariance": True, "violations": []}
        return [f"{k} is {report.get(k)!r}, expected {v!r}" for k, v in want.items() if report.get(k) != v]

    def _net_custom(self, check, report) -> list:
        clashes = {tuple(p) for p in check["expect"]["clashes"]}
        problems = [f"{k} is {report.get(k)!r}, expected True" for k in ("isotony", "lc_squares")
                    if report.get(k) is not True]
        if report.get("locality") != (not clashes):
            problems.append(f"locality is {report.get('locality')!r}, expected {not clashes!r}")
        located = set()
        for line in report["violations"]:
            match = LOCALITY.match(line)
            if match is None:
                problems.append(f"unexpected violation {line!r}")
            else:
                located.add(match.groups())
        if located != clashes:
            problems.append(f"violations located at {sorted(located)}, expected {sorted(clashes)}")
        return problems

    def _gft_ccr(self, check, report) -> list:
        if report["trials"] != check["expect"]["trials"]:
            return [f"{report['trials']} trials run"]
        if not (report["within_1e-10"] is True and report["max_guarded_defect"] <= 1e-10):
            return [f"CCR defect {report['max_guarded_defect']} exceeds 1e-10"]
        return []

    def _gft_weyl(self, check, report) -> list:
        cutoffs = check["expect"]["cutoffs"]
        if sorted(map(int, report["defects"])) != cutoffs:
            return [f"defects at cutoffs {sorted(report['defects'])}, expected {cutoffs}"]
        values = [report["defects"][str(c)] for c in cutoffs]
        if any(b >= a for a, b in zip(values, values[1:])):
            return [f"Weyl defects do not decrease strictly: {values}"]
        return []

    def _state_extend(self, check, report) -> list:
        problems = []
        if not report["max_expectation_defect"] <= 1e-8:
            problems.append(f"expectation defect {report['max_expectation_defect']} exceeds 1e-8")
        if len(report["weights"]) != report["carrier_points"]:
            problems.append("weight count differs from the carrier size")
        return problems

    def _limit(self, check, report) -> list:
        return [] if report.get("universal") is True else [f"universal is {report.get('universal')!r}"]

    def _inequality(self, check, report) -> list:
        expect = check["expect"]
        problems = []
        if report["provider"] != expect["provider"] or len(report["argmin_signs"]) != expect["total"]:
            problems.append("report does not match the family")
        if expect["provider"] == "measure" and report["classical_bound_holds"] is not True:
            problems.append("classical bound fails for a measure")
        return problems
