"""Interleaved timing of two polyprod source trees on one benchmark workload.

    python3 bench/ab.py BASE_SRC NEW_SRC --workload lattice|symmetry|crosscheck \\
        --seed N --passes P

BASE_SRC and NEW_SRC are directories that hold a ``polyprod`` package, such
as the ``src`` of two checkouts. The workload's query list is made once by
``perfbench/workloads.py``, with its input files written by the base tree,
and both trees answer the same list. Each pass sends the whole list to each
tree in turn, in this one process: the tree's ``polyprod`` is imported
afresh, and every query is timed and its answer checked by ``Run.ask`` of
``perfbench/run.py``, with ``perfbench/check.py``. The tree that goes first
alternates from pass to pass, and ``gc.collect()`` runs between passes, so
both trees are timed over the same stretch of machine time.

For each tree, as ``perfbench/run.py`` reports them: ``wall_s``, the sum
over the queries of each query's median latency over the passes, and
``query_p50_ms``/``query_p90_ms``, percentiles of those medians. The ratios
are NEW over BASE.

The same three metrics are also taken over each single pass, and the two
trees' values are paired pass by pass, since both trees answer a pass over
the same stretch of machine time. For each metric, ``acceptance`` holds
the share of passes in which NEW was lower than BASE (ties count for
neither), each tree's median over the passes, and BASE's interquartile
range over the passes (nearest-rank quartiles). ``gain`` applies the
acceptance rule for a claimed gain: NEW won at least nine tenths of the
passes and its median is lower than BASE's by more than BASE's
interquartile range. ``interval`` is a seeded bootstrap 95% interval of
the ratio of NEW's median over the passes to BASE's: 2000 resamples of
the passes, drawn with replacement from ``random.Random(0)``, each taking
both trees' values of the passes drawn, and the 2.5th and 97.5th
percentiles (nearest rank) of the ratios of their medians.

The last line is JSON; the exit code is 1 when some answer of either tree
failed its check, else 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from check import check  # noqa: E402
from run import Run, _median, _percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRICS = ("wall_s", "query_p50_ms", "query_p90_ms")
WIN_SHARE = 0.9
RESAMPLES = 2000


def load_cli(src: str):
    """``polyprod.cli`` imported afresh from the tree ``src``."""
    for name in [m for m in sys.modules if m == "polyprod" or m.startswith("polyprod.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("polyprod.cli")
    finally:
        sys.path.remove(src)
    if not os.path.samefile(os.path.dirname(cli.__file__), os.path.join(src, "polyprod")):
        raise RuntimeError(f"imported {cli.__file__}, not the tree {src}")
    return cli


def run_pass(cli, run) -> None:
    """Send every query of ``run`` once, keeping each latency and each
    failed check."""
    for i, q in enumerate(run.queries):
        run.latencies[i].append(run.ask(cli, q))


def metrics(per_query_ms) -> dict:
    """The three metrics of one latency per query, in milliseconds."""
    return {
        "wall_s": sum(per_query_ms) / 1000,
        "query_p50_ms": _percentile(per_query_ms, 50),
        "query_p90_ms": _percentile(per_query_ms, 90),
    }


def summary(run) -> dict:
    return {
        **metrics([_median(ts) * 1000 for ts in run.latencies]),
        "failed": len(run.failures),
        "failures": run.failures[:10],
    }


def per_pass(run) -> dict:
    """Each metric's value over each pass alone, in pass order."""
    passes = [metrics([t * 1000 for t in ts]) for ts in zip(*run.latencies)]
    return {m: [p[m] for p in passes] for m in METRICS}


def bootstrap_interval(base: list, new: list, resamples: int = RESAMPLES) -> list:
    """The 2.5th and 97.5th percentiles, nearest rank, of the ratio of
    NEW's median to BASE's over ``resamples`` paired resamples of the
    passes, drawn from ``random.Random(0)``."""
    rng = random.Random(0)
    k = len(base)
    ratios = []
    for _ in range(resamples):
        drawn = [rng.randrange(k) for _ in range(k)]
        ratios.append(_median([new[i] for i in drawn]) / _median([base[i] for i in drawn]))
    ratios.sort()
    return [ratios[-(-resamples * 25 // 1000) - 1], ratios[-(-resamples * 975 // 1000) - 1]]


def acceptance(base: list, new: list) -> dict:
    """The pass-by-pass comparison of one metric, lower being better."""
    won = sum(n < b for b, n in zip(base, new)) / len(base)
    iqr = _percentile(base, 75) - _percentile(base, 25)
    base_median, new_median = _median(base), _median(new)
    return {
        "new_won": won,
        "base_median": base_median,
        "new_median": new_median,
        "base_iqr": iqr,
        "gain": won >= WIN_SHARE and base_median - new_median > iqr,
        "interval": bootstrap_interval(base, new),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {"base": os.path.abspath(args.base_src), "new": os.path.abspath(args.new_src)}

    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir, load_cli(trees["base"]).main)
        queries = workload.make_queries(args.seed)
        runs = {side: Run(queries, check) for side in trees}
        for k in range(args.passes):
            for side in ("base", "new") if k % 2 == 0 else ("new", "base"):
                run_pass(load_cli(trees[side]), runs[side])
            gc.collect()

    report = {side: {"src": trees[side], **summary(runs[side])} for side in trees}
    ratios = {m: report["new"][m] / report["base"][m] for m in METRICS}
    base, new = per_pass(runs["base"]), per_pass(runs["new"])
    accepted = {m: acceptance(base[m], new[m]) for m in METRICS}
    for side, r in report.items():
        print(f"{side:4s} wall_s {r['wall_s']:.4f}  query_p50_ms {r['query_p50_ms']:.3f}  "
              f"query_p90_ms {r['query_p90_ms']:.3f}  failed {r['failed']}  ({r['src']})")
    print("new/base " + "  ".join(f"{m} {v:.3f}" for m, v in ratios.items()))
    for m, a in accepted.items():
        print(f"per pass {m}: new won {a['new_won']:.2f}, medians {a['base_median']:.4f} -> "
              f"{a['new_median']:.4f}, base IQR {a['base_iqr']:.4f}, gain {a['gain']}, "
              f"ratio 95% interval [{a['interval'][0]:.3f}, {a['interval'][1]:.3f}]")
    correct = not (runs["base"].failures or runs["new"].failures)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": args.passes,
                      "queries": len(queries), "trees": report, "ratios": ratios,
                      "acceptance": accepted, "correct": correct}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
