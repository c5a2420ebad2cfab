"""The polyprod benchmark.

    python3 perfbench/run.py --workload lattice|symmetry|crosscheck \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client in one single-threaded
process sends CLI queries to ``polyprod.cli.main(argv)`` in-process, each
after the previous one has returned (a closed loop), and checks every answer
against the closed-form reference in ``check.py``. The workloads and why each
was chosen are in ``workloads.py``.

Set-up, done ``SETUPS`` times: drop from ``sys.modules`` every module that a
bare interpreter had not loaded when this script started, so the set-up pays
polyprod's imports (the standard-library modules among them) as a fresh
interpreter does; import polyprod and the workload generator; generate the
seed's query list and write its input files. Then the run sends that one list
in passes, with polyprod imported afresh before each pass so no pass starts
with state a previous pass left, until the next pass would end after
``--seconds`` (at least ``MIN_PASSES`` passes).

With ``--trace 0`` the last line of output reports, in its ``metrics``:
  wall_s        time to answer the whole query list: the sum over its
                queries of each query's median latency over the passes
  query_p50_ms, query_p90_ms
                per-query latency: each query's median over the passes,
                then the percentile over the list's queries; the list has
                at least MIN_QUERIES queries, so at least ten lie beyond
                p90 (the count is printed in the profile line)
  setup_s       median set-up time
  peak_rss_mb   ru_maxrss of this process
  success_rate  1 - error_rate, the share of queries whose answer passed
                the reference check (error_rate itself is printed in the
                profile line; a metric must never read 0)
With ``--trace 1`` the passes alternate untraced and traced, and the metrics
are the per-layer metrics of ``tracing.py``, per traced pass, plus
``trace.overhead_ratio`` (traced over untraced pass time).
"""

import importlib
import os
import resource
import sys
from time import perf_counter

# what every set-up leaves loaded; the rest it imports anew
BASE_MODULES = set(sys.modules)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
WORKDIR = os.path.join(HERE, ".work")
SETUPS = 9
MIN_QUERIES = 100
MIN_PASSES = 3
# no pass starts after this, so a run ends well within three minutes
LAST_START_S = 120


def _forget(keep):
    for name in [m for m in sys.modules if not keep(m)]:
        del sys.modules[name]


def fresh_cli():
    _forget(lambda m: m != "polyprod" and not m.startswith("polyprod."))
    return importlib.import_module("polyprod.cli")


def set_up(name, seed):
    start = perf_counter()
    _forget(lambda m: m in BASE_MODULES)
    cli = importlib.import_module("polyprod.cli")
    workloads = importlib.import_module("workloads")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    workload = workloads.WORKLOADS[name](seed, WORKDIR, cli.main)
    queries = workload.make_queries(seed)
    return perf_counter() - start, workload, queries


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _percentile(values, q):
    """Nearest rank."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _spread(values):
    if not values:
        return {}
    return {"min": min(values), "p50": _percentile(values, 50),
            "p90": _percentile(values, 90), "max": max(values)}


class Run:
    """The query list of one run, its latencies and its failures."""

    def __init__(self, queries, check):
        self.queries = queries
        self.check = check
        self.latencies = [[] for _ in queries]
        self.failures = []
        self.attempted = 0

    def ask(self, cli, q, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        problem = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(q.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # any other exception is a failed query
            rc, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        text = out.getvalue()
        problem = problem or self.check(q, rc, text)
        self.attempted += 1
        if problem:
            self.failures.append(f"{' '.join(q.argv)}: {problem}")
        if tracer is not None:
            tracer.add("cli.stdout_bytes", len(text.encode()))
        return elapsed

    def run_pass(self, tracer=None, tracing=None):
        cli = fresh_cli()
        restore = tracing.install(tracer) if tracer is not None else None
        total = 0.0
        try:
            for i, q in enumerate(self.queries):
                elapsed = self.ask(cli, q, tracer)
                total += elapsed
                if tracer is None:
                    self.latencies[i].append(elapsed)
        finally:
            if restore is not None:
                restore()
        return total


def measure(run, seconds):
    passes = []
    start = perf_counter()
    while True:
        passes.append(run.run_pass())
        elapsed = perf_counter() - start
        if elapsed > LAST_START_S or (
                len(passes) >= MIN_PASSES and elapsed + _median(passes) > seconds):
            break
    per_query_ms = [_median(ts) * 1000 for ts in run.latencies]
    return passes, {
        "wall_s": (sum(per_query_ms) / 1000, "s"),
        "query_p50_ms": (_percentile(per_query_ms, 50), "ms"),
        "query_p90_ms": (_percentile(per_query_ms, 90), "ms"),
    }


def measure_traced(run, seconds):
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = perf_counter()
    while True:
        for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if traced_turn:
                traced.append(run.run_pass(tracer, tracing))
            else:
                plain.append(run.run_pass())
        elapsed = perf_counter() - start
        if elapsed > LAST_START_S or elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    metrics = {}
    for name, value in tracing.layer_metrics(tracer).items():
        if not name.endswith("_ratio"):
            value /= len(traced)
        unit = "s" if name.endswith(("_s", ".s")) else "bytes" if name.endswith("_bytes") else (
            "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    return plain, metrics


def profile(args, workload, queries, run, setups, pass_times):
    """What the run sent and how it went, for the record."""
    seen, repeats, kinds = set(), 0, {}
    for q in queries:
        repeats += q.key in seen
        seen.add(q.key)
        kinds[q.kind] = kinds.get(q.kind, 0) + 1
    n = len(queries)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(pass_times), "queries_per_pass": n,
        "latency_samples": n, "samples_beyond_p90": n - (-(-n * 90 // 100)),
        "error_rate": len(run.failures) / run.attempted,
        "repeat_share": repeats / n,
        "commands": dict(sorted(kinds.items())),
        "faces": _spread([q.faces for q in queries if q.faces is not None]),
        "aut_order": _spread([q.expect["order"] for q in queries if "order" in q.expect]),
        "setup_samples_s": [round(s, 6) for s in setups],
        "pass_s": [round(s, 4) for s in pass_times],
        "classes": {c.name: {"members": len(c.members), "draws": min(c.draws, len(c.members))}
                    for c in workload.classes},
        "excluded_by_cap": [{"query": q, "cap": reason} for q, reason in workload.excluded],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "polyprod")):
        print(f"perfbench: no polyprod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    try:
        setups = []
        for _ in range(SETUPS):
            elapsed, workload, queries = set_up(args.workload, args.seed)
            setups.append(elapsed)
        if len(queries) < MIN_QUERIES:
            raise RuntimeError(f"{len(queries)} queries, fewer than {MIN_QUERIES}")
        run = Run(queries, importlib.import_module("check").check)
        if args.trace:
            pass_times, metrics = measure_traced(run, args.seconds)
        else:
            pass_times, metrics = measure(run, args.seconds)
            metrics["setup_s"] = (_median(setups), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics["success_rate"] = (1 - len(run.failures) / run.attempted, "ratio")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for line in run.failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print("profile: " + json.dumps(profile(args, workload, queries, run, setups, pass_times)))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
