"""The three workloads, generated from a seed.

A workload is a list of fixed queries plus size classes. ``make_queries``
draws a fixed number of members from every class, turns each drawn shape
into CLI queries, adds the fixed ones and shuffles the list; a run sends
this one list in every pass, so every pass does the same work. A class is
sorted by cost and cut into as many equal strata as it has draws, with one
member drawn from each stratum, so two seeds give nearly the same total
work. Only cheap queries are drawn: the expensive ones are fixed, so the
90th percentile and most of the total read the same queries whatever the
seed. The classes are bands of the input property that sets the cost of
their command (costs measured with Python 3.11 on one core of a shared
2-vCPU virtual machine):

* verify and build: chains F <= H <= G, about 0.55 us each;
* brute force: |Aut| * n^2, about 0.4 us per unit;
* generators: |Aut| * n, about 0.7 us per unit, since closure stores and
  composes every group element.

Every shape is sent as its one canonical expression text (see ``shapes``).

Caps on input properties keep every pass bounded. Each cap goes through
``_cap``, which lists what it leaves out in the run's profile; the list is
kept in ``baseline.json``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import shapes
from check import Query, decompose_expect, family_expect, lattice_expect

# the caps named in the workloads' docstrings
BRUTE_CAP = 3_000_000  # |Aut| n^2, brute force in symmetry
CLOSURE_CAP = 5000  # |Aut|, generators in symmetry
GENERATORS_FACES_CAP = shapes.cube(5).faces  # n, generators in symmetry: up to I^x5
# lower in crosscheck, so that its many small queries, not a few long
# searches, make up its time
CROSSCHECK_BRUTE_CAP = 500_000  # |Aut| n^2, brute force in crosscheck
CROSSCHECK_CLOSURE_CAP = 200_000  # |Aut| n, generators in crosscheck

LATTICE_ARGS = ["--max-elements", "2500"]
LATTICE_COMMANDS = ["build-json", "build-dot", "verify"]

# the paper's worked example ((I*pt)x(I^x3))*(pt^*2), |Aut| = 576
WORKED_EXAMPLE = ("*pt", "xI", "xI", "xI", "*pt", "*pt")


@dataclass
class SizeClass:
    name: str
    members: list  # shapes, sorted by the cost of the class's command
    draws: int
    queries: Callable  # shape -> list[Query]


@dataclass
class Workload:
    name: str
    classes: list
    fixed: list  # queries sent as they are
    excluded: list  # (query, reason) for candidates the caps leave out

    def make_queries(self, seed: int) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        out = list(self.fixed)
        for cls in self.classes:
            for member in _draw(cls.members, cls.draws, rng):
                out.extend(cls.queries(member))
        rng.shuffle(out)
        return out


def _draw(members, k, rng):
    """One member from each of k equal strata of `members`; all if k >= len."""
    if k >= len(members):
        return list(members)
    cuts = [len(members) * i // k for i in range(k + 1)]
    return [members[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


def _band(members, key, lo, hi):
    return sorted((m for m in members if lo <= key(m) < hi), key=lambda m: (key(m), m.text))


def _cap(members, key, cap, query, excluded):
    """Members with key <= cap; the rest are recorded as `query` excluded."""
    kept = []
    for s in members:
        if key(s) <= cap:
            kept.append(s)
        else:
            excluded.append((query(s), f"{key.__doc__} = {key(s)} > {cap}"))
    return kept


def _chains(s):
    """chains"""
    return s.chains


def _brute_work(s):
    """|Aut| n^2"""
    return s.brute_work


def _closure_work(s):
    """|Aut| n"""
    return s.order * s.faces


def _order(s):
    """|Aut|"""
    return s.order


def _faces(s):
    """n"""
    return s.faces


# -- query makers -------------------------------------------------------------------------


def _lattice(s, command):
    if command == "verify":
        return Query("verify", [*LATTICE_ARGS, "verify", s.text], s.text, {"valid": True}, s.faces)
    fmt = command[len("build-"):]
    return Query(command, [*LATTICE_ARGS, "build", s.text, "--out", fmt], s.text,
                 lattice_expect(s), s.faces)


def _aut(s, method):
    return Query(f"aut-{method}", ["aut", s.text, "--method", method], s.text,
                 {"order": s.order}, s.faces)


def _aut_query(method):
    return lambda s: " ".join(_aut(s, method).argv)


def _decompose(s, shape):
    return Query(f"decompose-{shape}", ["decompose", s.text, "--as", shape], s.text,
                 decompose_expect(s, shape), s.faces)


# -- shape pools ---------------------------------------------------------------------------


def _mixed_pool(max_faces):
    """Products of two or three simplices, joins of two small shapes, and
    prisms and pyramids over all of these (up to two steps); bare simplices
    and cubes are left out."""
    simplices = [shapes.simplex(a) for a in range(2, 9)]
    bases = [shapes.cart(a, b) for i, a in enumerate(simplices) for b in simplices[i:]
             if b.vertices >= 3]
    bases += [shapes.cart(shapes.cart(a, b), c) for i, a in enumerate(simplices)
              for j, b in enumerate(simplices[i:], i) for c in simplices[j:] if c.vertices >= 3]
    small = [b for b in bases if b.faces <= 60] + [shapes.cube(2), shapes.cube(3)]
    bases += [shapes.join(a, b) for i, a in enumerate(small) for b in small[i:]]
    bases += [shapes.simplex(a) for a in range(3, 9)] + [shapes.cube(k) for k in range(2, 5)]
    plain = {shapes.simplex(a).canon for a in range(1, 13)}
    plain |= {shapes.cube(k).canon for k in range(1, 9)}
    pool = {}
    level = bases
    for _ in range(3):
        nxt = []
        for s in level:
            if s.faces <= max_faces and s.canon not in plain:
                pool.setdefault(s.canon, s)
            nxt += [t for t in (shapes.cart(s, shapes.I), shapes.join(s, shapes.PT))
                    if t.faces <= max_faces]
        level = nxt
    return list(pool.values())


def _closed_form_pool():
    """Simplices, cubes, the worked example, duoprisms of simplices and the
    prisms and pyramids of duoprisms."""
    out = [shapes.simplex(a) for a in range(3, 8)]
    out += [shapes.cube(k) for k in range(2, 6)]
    out.append(shapes.family(WORKED_EXAMPLE))
    for a in range(2, 5):
        for b in range(max(a, 3), 6):
            d = shapes.cart(shapes.simplex(a), shapes.simplex(b))
            out += [d, shapes.cart(d, shapes.I), shapes.join(d, shapes.PT)]
    return out


def _family_pool(max_steps):
    return [shapes.family(p) for k in range(max_steps + 1) for p in shapes.all_paths(k)]


# -- workloads ---------------------------------------------------------------------------------


def lattice(seed, workdir, main):
    """build --out json, build --out dot and verify on cubes I^x3..7,
    simplices pt^*4..11, the worked example and mixed shapes up to about
    2000 faces, plus verify --json on cover-deleted mutants written here.
    No search and no closure runs. The anchors, six mixed shapes spread
    over 5e4 to 2e6 chains and the mutants are fixed, each anchor and mixed
    shape with one command, rotating through the three, apart from the two
    below; they include every query above about 30 ms, so the 90th
    percentile reads fixed queries.
    The seed draws the cheaper mixed shapes, the same number for every
    command, and the covers the mutants lose."""
    rng = random.Random(f"lattice/{seed}")
    anchors = [shapes.cube(k) for k in range(3, 8)]
    anchors += [shapes.simplex(a) for a in range(4, 12)]
    anchors.append(shapes.family(WORKED_EXAMPLE))
    mixed = _mixed_pool(2200)
    upper = _band(mixed, _chains, 5e4, 2e6)
    anchors += [upper[len(upper) * (2 * i + 1) // 12] for i in range(6)]
    # pt^*9 and the worked example, about 180 ms a query, get every command,
    # so the 90th percentile falls among queries of similar cost
    every = {shapes.simplex(9).canon, shapes.family(WORKED_EXAMPLE).canon}
    fixed = [_lattice(s, c) for j, s in enumerate(anchors)
             for c in (LATTICE_COMMANDS if s.canon in every else [LATTICE_COMMANDS[j % 3]])]
    classes = [
        SizeClass(f"mixed {c} chains<{hi:g}", _band(mixed, _chains, lo, hi), draws,
                  lambda s, c=c: [_lattice(s, c)])
        for lo, hi, draws in ((0, 3e3, 9), (3e3, 5e4, 16)) for c in LATTICE_COMMANDS
    ]
    for base in (shapes.cube(4), shapes.cart(shapes.simplex(3), shapes.simplex(4)),
                 shapes.family(WORKED_EXAMPLE)):
        fixed += _write_mutants(base, (1, 40), len(fixed), rng, workdir, main)
    return Workload("lattice", classes, fixed, [])


def _write_mutants(base, deletions, index, rng, workdir, main):
    """Write the face lattice of `base` once per entry of `deletions`, with
    that many covers deleted. Deleting a cover (a, b) with rank(a) >= 0
    breaks the diamond just below b, so every mutant is invalid; 40
    deletions push the verifier past its 20-violation cap, onto its early
    exit."""
    path = os.path.join(workdir, f"base-{index}.json")
    if main([*LATTICE_ARGS, "build", base.text, "-o", path]) != 0:
        raise RuntimeError(f"could not build the mutant base {base.text}")
    with open(path) as fh:
        data = json.load(fh)
    rank = {e["id"]: e["rank"] for e in data["elements"]}
    candidates = [c for c in data["covers"] if rank[c[0]] >= 0]
    out = []
    for k in deletions:
        deleted = rng.sample(candidates, k)
        dropped = {tuple(c) for c in deleted}
        path = os.path.join(workdir, f"mutant-{index + len(out)}.json")
        with open(path, "w") as fh:
            json.dump({**data, "covers": [c for c in data["covers"] if tuple(c) not in dropped]}, fh)
        out.append(Query("verify-mutant", ["verify", "--json", path], path,
                         {"valid": False, "deleted": deleted}, base.faces))
    return out


def symmetry(seed, workdir, main):
    """aut --method brute on every closed-form shape up to the brute-force
    cap, and --method generators with --method formula on family-shaped
    expressions up to I^x5 and on the worked example, all in full; the
    largest brute and closure cases hold the 90th percentile. Formula
    queries on small family nodes, drawn, fill in around the median."""
    excluded = []
    brute = _cap(_closed_form_pool(), _brute_work, BRUTE_CAP, _aut_query("brute"), excluded)
    family = _cap(_family_pool(5), _order, CLOSURE_CAP, _aut_query("generators"), excluded)
    family = _cap(family, _faces, GENERATORS_FACES_CAP, _aut_query("generators"), excluded)
    family.append(shapes.family(WORKED_EXAMPLE))
    fixed = [_aut(s, "brute") for s in brute]
    fixed += [_aut(s, method) for s in family for method in ("generators", "formula")]
    classes = [SizeClass("formula n<=64", _band(family, _faces, 0, 65), 12,
                         lambda s: [_aut(s, "formula")])]
    return Workload("symmetry", classes, fixed, excluded)


def crosscheck(seed, workdir, main):
    """family --steps k for k <= 5 and, on every family node through step 5,
    --method formula plus, below crosscheck's own caps, brute and generators
    (every order is checked against the closed form, so the three agree),
    and decompose: --as pyramid and --as prism on nodes below 100 faces, one
    of the two, alternating by size, on the larger ones. Every query is
    fixed, so that no drawn query moves the percentiles; the seed sets
    their order."""
    excluded = []
    nodes = _family_pool(5)
    fixed = [Query("family", ["family", "--steps", str(k), "--json"], f"family {k}",
                   family_expect(k)) for k in range(6)]
    fixed += [_aut(s, "formula") for s in nodes]
    fixed += [_aut(s, "brute") for s in
              _cap(nodes, _brute_work, CROSSCHECK_BRUTE_CAP, _aut_query("brute"), excluded)]
    fixed += [_aut(s, "generators") for s in
              _cap(nodes, _closure_work, CROSSCHECK_CLOSURE_CAP, _aut_query("generators"), excluded)]
    fixed += [_decompose(s, shape) for s in _band(nodes, _faces, 0, 100)
              for shape in ("pyramid", "prism")]
    fixed += [_decompose(s, ("pyramid", "prism")[j % 2])
              for j, s in enumerate(_band(nodes, _faces, 100, 1000))]
    return Workload("crosscheck", [], fixed, excluded)


WORKLOADS = {"lattice": lattice, "symmetry": symmetry, "crosscheck": crosscheck}
