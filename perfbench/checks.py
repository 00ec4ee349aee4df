"""Correctness checks on one pipeline run's artifacts, made outside timing.

* Rankings: every row of ``matches.jsonl`` is in ranking order, there is
  exactly one row per profiled student, and for a fixed sample of students
  the row equals a full sort of every role model by pairwise
  ``similarity.combined_score`` (score descending, no-signal last, ties by
  candidate id ascending), cut at k.
* Report: ``report.json`` agrees with itself and with the pages written.
* Digests: the sha256 of every artifact is the same across runs of the same
  code and seed.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from stem_match.attributes import load_profiles
from stem_match.similarity import DEFAULT_FUZZY_THRESHOLD, combined_score

SAMPLE_SIZE = 5


def _rank_key(entry: dict) -> tuple:
    return (entry["no_signal"], -entry["combined"], entry["candidate_id"])


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def sample_positions(n: int, size: int = SAMPLE_SIZE) -> list[int]:
    """Evenly spaced row positions, first and last included."""
    if n <= size:
        return list(range(n))
    return sorted({round(i * (n - 1) / (size - 1)) for i in range(size)})


def check_rankings(out_dir: Path, k: int, threshold: float = DEFAULT_FUZZY_THRESHOLD) -> list[str]:
    students = load_profiles(out_dir / "student_profiles.jsonl")
    candidates = load_profiles(out_dir / "rolemodel_profiles.jsonl")
    rows = _read_rows(out_dir / "matches.jsonl")
    problems = []
    expected_ids = [sid for sid, _ in students]
    got_ids = [row["student_id"] for row in rows]
    if got_ids != expected_ids:
        problems.append(
            f"matches.jsonl has {len(got_ids)} rows for {len(expected_ids)} profiled students"
            if len(got_ids) != len(expected_ids) else "matches.jsonl rows are not in student order"
        )
        return problems
    width = min(k, len(candidates))
    for row in rows:
        keys = [_rank_key(entry) for entry in row["ranked"]]
        if len(keys) != width or keys != sorted(keys) or len(set(keys)) != len(keys):
            problems.append(f"student {row['student_id']}: ranked list is not in ranking order")
    for position in sample_positions(len(students)):
        student_id, profile = students[position]
        scored = [
            {"candidate_id": cid, **combined_score(profile, cand, threshold).to_dict()}
            for cid, cand in candidates
        ]
        expected = sorted(scored, key=_rank_key)[:k]
        if rows[position]["ranked"] != expected:
            problems.append(f"student {student_id}: ranking differs from the pairwise full sort")
    return problems


def check_report(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    ranked = report["matching"]["students_ranked"]
    college = report["cohort"]["college"]
    pages = sum(1 for _ in (out_dir / "pages").glob("*.html"))
    problems = []
    if ranked != college:
        problems.append(f"report: students_ranked {ranked} != cohort.college {college}")
    if pages != ranked:
        problems.append(f"report: {pages} pages for {ranked} ranked students")
    return problems


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def digest_problems(reference: dict[str, str], current: dict[str, str]) -> list[str]:
    changed = sorted(name for name in reference.keys() & current.keys()
                     if reference[name] != current[name])
    missing = sorted(reference.keys() - current.keys())
    extra = sorted(current.keys() - reference.keys())
    problems = []
    for label, names in (("changed", changed), ("missing", missing), ("unexpected", extra)):
        if names:
            problems.append(f"{len(names)} artifacts {label} (first: {names[0]})")
    return problems


def planted_recall(out_dir: Path, annotations: Path) -> tuple[int, int]:
    """(hits, base): planted students in the cohort whose partner is in their top-k."""
    planted = {
        row["subject_id"]: row["planted_candidate_id"]
        for row in _read_rows(annotations) if row.get("planted_candidate_id")
    }
    hits = base = 0
    for row in _read_rows(out_dir / "matches.jsonl"):
        partner = planted.get(row["student_id"])
        if partner is None:
            continue
        base += 1
        hits += any(entry["candidate_id"] == partner for entry in row["ranked"])
    return hits, base
