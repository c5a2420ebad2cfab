"""Reference checker: compares one CLI answer with what the query expects.

``check(query, rc, stdout)`` returns None when the answer matches and a short
description of the first mismatch otherwise. The expected values come from
the closed forms in ``shapes`` and from how the mutants were made, never from
another run of the program.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import shapes

EXIT_OK = 0
EXIT_INVALID = 1


@dataclass
class Query:
    kind: str  # build-json, build-dot, verify, verify-mutant, aut-<method>, decompose-<as>, family
    argv: list
    key: str  # the expression or input file; repeats of it count toward the repeat share
    expect: dict = field(default_factory=dict)
    faces: Optional[int] = None  # of the input, for the recorded distribution


def _json_body(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def _check_lattice(data, expect) -> Optional[str]:
    elements = data.get("elements", [])
    ids = {e["id"] for e in elements}
    if len(ids) != len(elements):
        return "duplicate element ids"
    got = (len(elements), len(data.get("covers", [])), data.get("rank"))
    want = (expect["faces"], expect["covers"], expect["rank"])
    if got != want:
        return f"(faces, covers, rank) = {got}, expected {want}"
    if any(a not in ids or b not in ids for a, b in data["covers"]):
        return "cover references an unknown id"
    return None


def _check_build_dot(stdout, expect) -> Optional[str]:
    lines = stdout.splitlines()
    nodes = sum(1 for ln in lines if "[label=" in ln)
    edges = sum(1 for ln in lines if " -> " in ln)
    if (nodes, edges) != (expect["faces"], expect["covers"]):
        return f"dot has {nodes} nodes and {edges} edges, expected {expect['faces']} and {expect['covers']}"
    return None


def _check_verify(data, expect) -> Optional[str]:
    failures = data.get("failures")
    if data.get("is_polytope") is not expect["valid"] or failures is None:
        return f"is_polytope = {data.get('is_polytope')}, expected {expect['valid']}"
    if expect["valid"]:
        return "valid polytope reported with failures" if failures else None
    if not failures:
        return "invalid poset reported without failures"
    per_check = {}
    for f in failures:
        per_check[f["check"]] = per_check.get(f["check"], 0) + 1
        if f["check"] == "diamond" and f["middle_count"] == 2:
            return "diamond failure on an interval with two middle elements"
    if per_check.get("diamond", 0) > 20 or per_check.get("connected", 0) > 20:
        return f"more failures than the verifier's cap: {per_check}"
    deleted = expect["deleted"]
    if len(deleted) == 1:
        a, b = deleted[0]
        # the diamonds just below b and just above a lose their middle element a / b
        if not any(f["check"] == "diamond" and (f["interval"][1] == b or f["interval"][0] == a)
                   for f in failures):
            return f"no diamond failure at the deleted cover {deleted[0]}"
    return None


_ORDER = re.compile(r"^order: (\d+)$", re.M)


def _check_aut(stdout, expect) -> Optional[str]:
    found = _ORDER.findall(stdout)
    if len(found) != 1:
        return "no order line"
    if int(found[0]) != expect["order"]:
        return f"order {found[0]}, expected {expect['order']}"
    return None


def _check_decompose(stdout, expect) -> Optional[str]:
    if expect["cofactor_faces"] is None:
        return None if stdout.strip() == "none" else "cofactor found where none exists"
    if stdout.strip() == "none":
        return "no cofactor found where one exists"
    data, err = _json_body(stdout)
    if err:
        return err
    got = (len(data["elements"]), data["rank"])
    want = (expect["cofactor_faces"], expect["cofactor_rank"])
    return None if got == want else f"cofactor (faces, rank) = {got}, expected {want}"


def _check_family(data, expect) -> Optional[str]:
    want = expect["orders"]
    got = {",".join(node["path"]): node["order"] for node in data}
    if len(data) != len(want) or got != want:
        wrong = sorted(p for p in want if got.get(p) != want[p])
        return f"family orders differ at {wrong[:3]} ({len(data)} nodes, expected {len(want)})"
    return None


def check(q: Query, rc, stdout: str) -> Optional[str]:
    want_rc = EXIT_INVALID if q.kind == "verify-mutant" else EXIT_OK
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if q.kind == "build-dot":
        return _check_build_dot(stdout, q.expect)
    if q.kind.startswith("aut-"):
        return _check_aut(stdout, q.expect)
    if q.kind.startswith("decompose-"):
        return _check_decompose(stdout, q.expect)
    data, err = _json_body(stdout)
    if err:
        return err
    if q.kind == "build-json":
        return _check_lattice(data, q.expect)
    if q.kind in ("verify", "verify-mutant"):
        return _check_verify(data, q.expect)
    if q.kind == "family":
        return _check_family(data, q.expect)
    raise ValueError(f"unknown query kind {q.kind!r}")


# -- expected values -------------------------------------------------------------


def lattice_expect(s: shapes.Shape) -> dict:
    return {"faces": s.faces, "covers": s.covers, "rank": s.rank}


def decompose_expect(s: shapes.Shape, shape: str) -> dict:
    """The cofactor Q of P = Q * pt or P = Q x I has a size fixed by P."""
    if shape == "pyramid":
        found = shapes.is_pyramid(s.canon)
        faces = s.faces // 2
    else:
        found = shapes.is_prism(s.canon)
        faces = (s.faces - 1) // 3 + 1
    return {"cofactor_faces": faces if found else None, "cofactor_rank": s.rank - 1}


def family_expect(steps: int) -> dict:
    return {"orders": {",".join(p): shapes.family(p).order for p in shapes.all_paths(steps)}}
