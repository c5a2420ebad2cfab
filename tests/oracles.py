"""Independent brute-force oracles used to freeze expected values.

Everything here works from the raw element/cover data only, so the results
stay independent of the library's reachability tables and search code.
"""

import itertools


def naive_leq(P, a, b):
    """Reachability over covers by breadth-first search."""
    if a == b:
        return True
    ups = {}
    for x, y in P.covers:
        ups.setdefault(x, []).append(y)
    frontier = [a]
    seen = {a}
    while frontier:
        nxt = []
        for x in frontier:
            for y in ups.get(x, []):
                if y == b:
                    return True
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def naive_maximal_chains(P):
    """All maximal chains, by DFS over covers from the minimal elements."""
    ups = {}
    lowers = set()
    for x, y in P.covers:
        ups.setdefault(x, []).append(y)
        lowers.add(y)
    starts = [eid for eid, _ in P.elements() if eid not in lowers]
    chains = []

    def extend(chain):
        outs = ups.get(chain[-1], [])
        if not outs:
            chains.append(tuple(chain))
            return
        for y in sorted(outs):
            extend(chain + [y])

    for s in sorted(starts):
        extend([s])
    return chains


def naive_interval(P, a, b):
    """All ids h with a <= h <= b, by two reachability sweeps."""
    return [
        eid
        for eid, _ in P.elements()
        if naive_leq(P, a, eid) and naive_leq(P, eid, b)
    ]


def count_by_rank(P):
    counts = {}
    for _, rk in P.elements():
        counts[rk] = counts.get(rk, 0) + 1
    return counts


def naive_automorphism_count(P):
    """Count rank-preserving cover-preserving bijections by exhaustion.

    Only feasible for very small posets (rank classes of size <= ~5).
    """
    by_rank = {}
    for eid, rk in P.elements():
        by_rank.setdefault(rk, []).append(eid)
    ranks = sorted(by_rank)
    covers = set(P.covers)
    count = 0
    pools = [list(itertools.permutations(by_rank[rk])) for rk in ranks]
    for choice in itertools.product(*pools):
        mapping = {}
        for rk, perm in zip(ranks, choice):
            mapping.update(zip(by_rank[rk], perm))
        if {(mapping[a], mapping[b]) for a, b in covers} == covers:
            count += 1
    return count


def naive_violations(P, cap=20):
    """The verifier's diamond and connectivity violation lists, recomputed
    from ``P.elements()`` and ``P.covers`` alone.

    Reachability comes from a breadth-first search over covers. Comparable
    pairs F <= G are visited by rank of F, rank of G, then F and G in element
    order. A pair of rank difference 2 fails the diamond condition unless
    exactly two elements lie strictly between; one of rank difference 3 or
    more fails connectivity when the elements strictly between are not
    connected by comparability. Each list keeps its first ``cap`` entries.
    """
    elements = P.elements()
    ids = [eid for eid, _ in elements]
    rank = dict(elements)
    ups = {eid: [] for eid in ids}
    for a, b in P.covers:
        ups[a].append(b)

    def reach(start):
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [y for x in frontier for y in ups[x] if y not in seen]
            seen.update(frontier)
        return seen

    above = {eid: reach(eid) for eid in ids}
    below = {eid: {f for f in ids if eid in above[f]} for eid in ids}

    def connected(members):
        start = next(iter(members))
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [
                y for x in frontier for y in members
                if y not in seen and (y in above[x] or x in above[y])
            ]
            seen.update(frontier)
        return seen == members

    pairs = sorted(
        (rank[f], rank[g], i, j)
        for i, f in enumerate(ids)
        for j, g in enumerate(ids)
        if g in above[f]
    )
    diamond, disconnected = [], []
    for rf, rg, i, j in pairs:
        f, g = ids[i], ids[j]
        middle = (above[f] & below[g]) - {f, g}
        if rg - rf == 2 and len(middle) != 2:
            diamond.append((f, g, len(middle)))
        if rg - rf >= 3 and middle and not connected(middle):
            disconnected.append((f, g))
    return diamond[:cap], disconnected[:cap]


def compose(g, h):
    """The permutation g after h, each a tuple of images: x -> g[h[x]]."""
    return tuple(g[y] for y in h)


def inverse(g):
    """The inverse of the permutation g, a tuple of images."""
    inv = [0] * len(g)
    for i, j in enumerate(g):
        inv[j] = i
    return tuple(inv)


def naive_group_order(generators):
    """The order of the group the permutations ``generators`` generate, by
    closing the identity under ``compose`` with each of them and counting
    the permutations; no flags, so exact on any poset."""
    if not generators:
        return 1
    group = {tuple(range(len(generators[0])))}
    frontier = list(group)
    while frontier:
        frontier = list({compose(g, h) for h in frontier for g in generators} - group)
        group.update(frontier)
    return len(group)
