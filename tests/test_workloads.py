"""Every benchmark workload query answers as recorded.

The seed-1 query lists of ``perfbench/workloads.py`` are built here, with
their input files in a fresh work dir, and each query is run once through
``cli.main``. One sha256 per workload, over every query's argv (the work
dir written as ``<work>``), exit code, stdout and stderr, must equal the
digest recorded in ``tests/data/workload_digests.json``. A change to the
workloads re-records the digests:

    PYTHONPATH=src python tests/test_workloads.py > tests/data/workload_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from polyprod.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "workload_digests.json"
SEED = 1


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.WORKLOADS


def workload_digest(name: str, workdir: str) -> str:
    """The sha256 of the answers to workload ``name``'s seed-1 queries, with
    its input files written under ``workdir``."""
    queries = _workloads()[name](SEED, workdir, main).make_queries(SEED)
    digest = hashlib.sha256()
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(q.argv)
        argv = [arg.replace(workdir, "<work>") for arg in q.argv]
        digest.update(json.dumps([argv, rc, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", ["lattice", "symmetry", "crosscheck"])
def test_workload_answers_match_recorded_digest(name, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    assert workload_digest(name, str(tmp_path)) == recorded[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        names = _workloads()
        print(json.dumps({name: workload_digest(name, tmp) for name in names}, indent=2))
