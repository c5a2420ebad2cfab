"""Traced runs: spans around the public callables of every polyprod module,
recorded from outside the package, and the per-layer metrics built from them.

``install(tracer)`` replaces each public function of each module with a
wrapper that records a span (name, start, end, parent) and, after the span has
closed, work counters computed from the call's inputs and output. The
counting runs inside a ``trace.count`` span, so no layer is charged for it.
Names re-bound by ``from .x import y`` are replaced too, and so is
``PolytopePoset.__init__``. The returned function puts the originals back.

Left unwrapped, so their time falls in their callers: ``products.pair_id``
(it runs once per face and cover, and a span per face would swamp the
products it formats), the ``groups`` module (microseconds per call) and
classes other than ``PolytopePoset``.

Metric names ending in ``self_s`` are self time: a span's duration minus the
part of it its child spans cover. Every other ``_s`` metric is the time spent
inside the named entry points, nested calls counted once.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

MODULES = ["cli", "expr", "family", "structure", "autom", "verify", "products", "poset"]
UNWRAPPED = {"products.pair_id", "cli.entry"}
COUNT = "trace.count"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.extra = {}

    def open(self, name, counts=None):
        """Start a span; `counts` is a dict on the span that opens a call and
        None on a generator's later resumptions."""
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, counts])
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def add(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value


# -- counters, computed from inputs and outputs --------------------------------------


def _product_counts(args, kwargs, P):
    return {"faces": len(P), "covers": len(P.covers)}


def _init_counts(args, kwargs, result):
    P = args[0]
    return {"faces": len(P), "covers": len(P.covers)}


def _verify_counts(args, kwargs, report):
    """Intervals of rank difference 2 (diamond checks) and comparable pairs of
    rank difference >= 3 (connectivity checks) in the input."""
    P = args[0]
    ids = P.element_ids()
    rank_mask = {}
    for i, eid in enumerate(ids):
        r = P.rank_of(eid)
        rank_mask[r] = rank_mask.get(r, 0) | (1 << i)
    at_least = {}
    acc = 0
    for r in sorted(rank_mask, reverse=True):
        acc |= rank_mask[r]
        at_least[r] = acc
    diamonds = sections = 0
    for eid in ids:
        r = P.rank_of(eid)
        up = P.up_mask(eid)
        diamonds += (up & rank_mask.get(r + 2, 0)).bit_count()
        sections += (up & at_least.get(r + 3, 0)).bit_count()
    return {"faces": len(P), "diamonds": diamonds, "sections": sections,
            "invalid": int(not report.is_polytope)}


def _search_counts(args, kwargs, result):
    return {"faces": len(args[0])}


def _iso_counts(args, kwargs, result):
    return {"hit": int(result is not None)}


def _brute_counts(args, kwargs, result):
    return {"maps": result if isinstance(result, int) else len(result)}


def _generator_counts(args, kwargs, gens):
    return {"generators": len(gens)}


def _closure_counts(args, kwargs, order):
    return {"elements": order, "attempts": order * len(args[0])}


def _family_counts(args, kwargs, result):
    return {"nodes": len(result) if isinstance(result, list) else 1}


COUNTERS = {
    "products.join": _product_counts,
    "products.cartesian": _product_counts,
    "poset.PolytopePoset.__init__": _init_counts,
    "verify.verify_polytope": _verify_counts,
    "poset.order_isomorphisms": _search_counts,
    "poset.is_isomorphic": _iso_counts,
    "autom.aut_order": _brute_counts,
    "autom.automorphisms": _brute_counts,
    "autom.described_generators": _generator_counts,
    "autom.closure": _closure_counts,
    "family.enumerate_family": _family_counts,
    "family.node_for_path": _family_counts,
}


# -- wrappers ------------------------------------------------------------------------------


def _wrap(tracer, name, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counts = {}
        sid = tracer.open(name, counts)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if counter is not None:
            cid = tracer.open(COUNT)
            counts.update(counter(args, kwargs, result))
            tracer.close(cid)
        return result

    return traced


def _wrap_generator(tracer, name, fn):
    """Each resumption of the generator is one span. The counters are taken
    before the first one, because a consumer such as is_isomorphic may drop
    the generator after its first item; "maps" counts the items yielded."""
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cid = tracer.open(COUNT)
        counts = dict(counter(args, kwargs, None)) if counter else {}
        tracer.close(cid)
        inner = fn(*args, **kwargs)
        first = True
        while True:
            sid = tracer.open(name, counts if first else None)
            first = False
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            counts["maps"] = counts.get("maps", 0) + 1
            yield item

    return traced


def install(tracer):
    """Wrap every public callable of the polyprod modules; return an undo."""
    mods = {name: sys.modules[f"polyprod.{name}"] for name in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            make = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
            wrapped[fn] = make(tracer, name, fn)

    undo = []
    targets = [m for n, m in sys.modules.items() if n == "polyprod" or n.startswith("polyprod.")]
    for mod in targets:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])

    cls = mods["poset"].PolytopePoset
    init = cls.__init__
    cls.__init__ = _wrap(tracer, "poset.PolytopePoset.__init__", init)
    undo.append((cls, "__init__", init))

    def restore():
        for owner, attr, value in undo:
            setattr(owner, attr, value)

    return restore


# -- per-layer metrics -------------------------------------------------------------------------


class _Index:
    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.child = child

    def self_s(self, *names):
        return sum(s[2] - s[1] - self.child[i] for i, s in enumerate(self.spans) if s[0] in names)

    def _inside(self, i, names):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def time_s(self, *names):
        return sum(s[2] - s[1] for i, s in enumerate(self.spans)
                   if s[0] in names and not self._inside(i, names))

    def count(self, *names):
        """Calls; a generator's resumptions count once, through its counters."""
        return sum(1 for s in self.spans if s[0] in names and s[4] is not None)

    def total(self, key, *names):
        return sum(s[4].get(key, 0) for s in self.spans if s[0] in names and s[4] is not None)

    def owner(self, i):
        """Name of the nearest enclosing span outside the products layer."""
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0].startswith("products."):
            p = self.spans[p][3]
        return self.spans[p][0] if p >= 0 else ""

    def iso_under(self, prefix):
        tries = hits = 0
        for s in self.spans:
            if s[0] == "poset.is_isomorphic" and s[3] >= 0 and self.spans[s[3]][0].startswith(prefix):
                tries += 1
                hits += s[4].get("hit", 0)
        return tries, hits


PRODUCTS = ("products.join", "products.cartesian")
SERIALISE = ("cli.main", "poset.to_json", "poset.to_dot", "poset.from_json", "family.node_to_json")
SEARCH = ("poset.order_isomorphisms", "poset.is_isomorphic")
BRUTE = ("autom.aut_order", "autom.automorphisms")
DECOMPOSE = ("structure.pyramid_decompose", "structure.prism_decompose")


def layer_metrics(tracer):
    """Per-layer totals of one traced stretch, as {metric: value}."""
    x = _Index(tracer.spans)
    iso_tries, iso_hits = x.iso_under("structure.")
    elements = x.total("elements", "autom.closure")
    attempts = x.total("attempts", "autom.closure")
    closures = x.count("autom.closure")
    faces_built = sum(s[4].get("faces", 0) for i, s in enumerate(x.spans)
                      if s[0] in PRODUCTS and s[4] is not None and x.owner(i).startswith("family."))
    return {
        "cli.self_s": x.self_s(*SERIALISE),
        "cli.calls": x.count("cli.main"),
        "cli.stdout_bytes": tracer.extra.get("cli.stdout_bytes", 0),
        "expr.parse_s": x.self_s("expr.parse_expr"),
        "expr.eval_self_s": x.self_s("expr.eval_expr", "expr.expr_size"),
        "expr.to_family_self_s": x.self_s("expr.expr_to_family"),
        "expr.calls": x.count("expr.parse_expr", "expr.eval_expr", "expr.expr_to_family"),
        "products.self_s": x.self_s(*PRODUCTS, "products.power"),
        "products.calls": x.count(*PRODUCTS),
        "products.faces_out": x.total("faces", *PRODUCTS),
        "products.covers_out": x.total("covers", *PRODUCTS),
        "poset.init_s": x.time_s("poset.PolytopePoset.__init__"),
        "poset.init_calls": x.count("poset.PolytopePoset.__init__"),
        "poset.init_faces": x.total("faces", "poset.PolytopePoset.__init__"),
        "poset.init_covers": x.total("covers", "poset.PolytopePoset.__init__"),
        "poset.section_s": x.self_s("poset.section"),
        "poset.search_s": x.time_s(*SEARCH),
        "poset.search_calls": x.count("poset.order_isomorphisms"),
        "poset.search_maps": x.total("maps", "poset.order_isomorphisms"),
        "poset.search_faces": x.total("faces", "poset.order_isomorphisms"),
        "verify.s": x.time_s("verify.verify_polytope"),
        "verify.calls": x.count("verify.verify_polytope"),
        "verify.faces": x.total("faces", "verify.verify_polytope"),
        "verify.diamond_intervals": x.total("diamonds", "verify.verify_polytope"),
        "verify.connectivity_sections": x.total("sections", "verify.verify_polytope"),
        "verify.invalid": x.total("invalid", "verify.verify_polytope"),
        "structure.pyramid_s": x.time_s("structure.pyramid_decompose"),
        "structure.prism_s": x.time_s("structure.prism_decompose"),
        "structure.calls": x.count(*DECOMPOSE),
        "structure.iso_tries": iso_tries,
        "structure.hit_ratio": iso_hits / iso_tries if iso_tries else 0.0,
        "autom.brute_s": x.time_s(*BRUTE),
        "autom.brute_maps": x.total("maps", *BRUTE),
        "autom.generators_s": x.time_s("autom.described_generators"),
        "autom.generators": x.total("generators", "autom.described_generators"),
        "autom.closure_s": x.time_s("autom.closure"),
        "autom.closure_elements": elements,
        "autom.closure_useful_ratio": (elements - closures) / attempts if attempts else 0.0,
        "family.enumerate_s": x.time_s("family.enumerate_family"),
        "family.node_for_path_s": x.time_s("family.node_for_path"),
        "family.nodes": x.total("nodes", "family.enumerate_family", "family.node_for_path"),
        "family.faces_built": faces_built,
    }
