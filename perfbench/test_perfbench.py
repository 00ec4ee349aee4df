"""Tests of the benchmark itself: smoke runs, correctness checks, guards.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from stem_match.pipeline import PipelineConfig, run_pipeline  # noqa: E402
from workloads import WORKLOADS, describe_inputs, make_inputs  # noqa: E402

TINY = 0.05


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, trace, section):
    proc = bench("--workload", "cohort-heavy", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", str(TINY), "--work-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["records.students_file_loads"]["value"] == 4
        assert (tmp_path / "cohort-heavy" / "trace" / "spans.jsonl").stat().st_size > 0
        assert (tmp_path / "cohort-heavy" / "trace" / "self_time.tsv").stat().st_size > 0


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "pool-heavy", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    inputs = make_inputs(WORKLOADS["pool-heavy"], 5, root / "inputs", TINY)
    config = PipelineConfig(students=inputs["students"], candidates=inputs["candidates"],
                            annotations=inputs["gt"], out_dir=root / "out", k=5)
    run_pipeline(config)
    return config.out_dir


def _copy(out_dir: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return copy


def _rewrite_matches(out_dir: Path, edit) -> None:
    path = out_dir / "matches.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_checks_pass_on_an_untouched_run(run_out):
    assert checks.check_rankings(run_out, 5) == []
    assert checks.check_report(run_out) == []


@pytest.mark.parametrize("position", [0, -1])
def test_ranking_check_rejects_two_swapped_entries(run_out, tmp_path, position):
    out = _copy(run_out, tmp_path)

    def swap(rows):
        ranked = rows[position]["ranked"]
        ranked[1], ranked[2] = ranked[2], ranked[1]

    _rewrite_matches(out, swap)
    assert checks.check_rankings(out, 5)


def test_ranking_check_rejects_a_dropped_row(run_out, tmp_path):
    out = _copy(run_out, tmp_path)
    _rewrite_matches(out, lambda rows: rows.pop(len(rows) // 2))
    assert checks.check_rankings(out, 5)


def test_ranking_check_rejects_a_ranking_that_differs_from_the_full_sort(run_out, tmp_path):
    out = _copy(run_out, tmp_path)
    first = json.loads((out / "matches.jsonl").read_text(encoding="utf-8").splitlines()[0])
    ranked_ids = {entry["candidate_id"] for entry in first["ranked"]}
    profiles = (out / "rolemodel_profiles.jsonl").read_text(encoding="utf-8").splitlines()
    outsider = next(json.loads(line)["id"] for line in profiles
                    if json.loads(line)["id"] not in ranked_ids)

    def replace_last(rows):
        rows[0]["ranked"][-1]["candidate_id"] = outsider

    _rewrite_matches(out, replace_last)
    problems = checks.check_rankings(out, 5)
    assert any("full sort" in problem for problem in problems)


def test_report_check_rejects_a_missing_page(run_out, tmp_path):
    out = _copy(run_out, tmp_path)
    next((out / "pages").glob("*.html")).unlink()
    assert checks.check_report(out)


def test_digest_check_rejects_a_changed_artifact(run_out, tmp_path):
    reference = checks.artifact_digests(run_out)
    out = _copy(run_out, tmp_path)
    assert checks.digest_problems(reference, checks.artifact_digests(out)) == []
    page = sorted((out / "pages").glob("*.html"))[0]
    page.write_bytes(page.read_bytes() + b" ")
    problems = checks.digest_problems(reference, checks.artifact_digests(out))
    assert problems and f"pages/{page.name}" in problems[0]


def test_only_fuzzy_vocab_has_overlapping_masks(tmp_path):
    shares = {
        name: describe_inputs(make_inputs(WORKLOADS[name], 2, tmp_path / name, TINY))
        ["mask_overlap_share"]
        for name in ("pool-heavy", "fuzzy-vocab")
    }
    assert shares["pool-heavy"] == 0
    assert shares["fuzzy-vocab"] > 0
