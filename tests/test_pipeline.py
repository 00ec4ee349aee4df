"""The end-to-end pipeline as a chain of file contracts."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stem_match import labeling, pipeline
from stem_match.cli import main
from stem_match.pages import PROFILE_URL_TEMPLATE
from stem_match.pipeline import (
    PipelineConfig,
    PipelineError,
    run_pipeline,
)
from stem_match.synthetic import SynthConfig, generate_synthetic


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    config = SynthConfig(seed=23, n_students=50, n_candidates=150,
                         planted_fraction=0.5)
    return generate_synthetic(config, root)


def make_config(corpus, out_dir, **overrides):
    options = dict(
        students=corpus["students"],
        candidates=corpus["candidates"],
        annotations=corpus["gt"],
        out_dir=out_dir,
        seed=4,
        cv_folds=3,
    )
    options.update(overrides)
    return PipelineConfig(**options)


def test_run_produces_every_artifact(tmp_path, corpus):
    result = run_pipeline(make_config(corpus, tmp_path / "out"))
    for name, path in result.paths.items():
        assert path.exists(), name
    pages = sorted((tmp_path / "out" / "pages").glob("*.html"))
    assert pages, "no pages were rendered"
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report == result.report


def test_report_covers_each_stage(tmp_path, corpus):
    report = run_pipeline(make_config(corpus, tmp_path / "out")).report
    assert set(report) >= {"cohort", "classifier", "rolemodels", "matching", "evaluation"}
    cohort = report["cohort"]
    assert cohort["students"] == 50
    labels = cohort["weak_labels"]
    assert labels["college"] + labels["non-college"] + labels["unlabeled"] == 50
    assert cohort["college"] >= labels["college"]
    rolemodels = report["rolemodels"]
    assert 0 < rolemodels["kept"] <= 150
    assert sum(rolemodels["reasons"].values()) == rolemodels["kept"]
    assert report["matching"]["students_ranked"] == cohort["college"]
    assert set(report["evaluation"]) == {"city-all", "state-all", "city-top10", "state-top10"}
    for level in report["evaluation"].values():
        assert level["cohort_size"] >= 0


def test_evaluation_is_omitted_without_annotations(tmp_path, corpus):
    config = make_config(corpus, tmp_path / "out", annotations=None)
    report = run_pipeline(config).report
    assert "evaluation" not in report


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_rerun_from_scratch_is_byte_identical(tmp_path, corpus):
    run_pipeline(make_config(corpus, tmp_path / "one"))
    run_pipeline(make_config(corpus, tmp_path / "two"))
    assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")


NO_LOADS = dict(load_students=0, read_labels=0, load_profiles=0, load_rolemodels=0,
                load_matches=0, read_jsonl=0)


@pytest.fixture
def load_counts(monkeypatch, tmp_path):
    """Counts the loads of the students file and of every artifact a run
    writes; ``read_jsonl`` counts only paths under ``tmp_path``, where the
    tests write their runs."""
    counts = dict(NO_LOADS)

    def count(module, name, counted=lambda path: True):
        fn = getattr(module, name)

        def wrapper(path, *args, **kwargs):
            counts[name] += counted(path)
            return fn(path, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((pipeline, "load_students"), (pipeline.labeling, "read_labels"),
                         (pipeline.attr, "load_profiles"), (pipeline, "load_rolemodels"),
                         (pipeline.matching, "load_matches")):
        count(module, name)
    count(pipeline, "read_jsonl", lambda path: tmp_path in Path(path).parents)
    return counts


def test_one_run_parses_students_once_and_never_reads_matches_back(tmp_path, corpus, load_counts):
    run_pipeline(make_config(corpus, tmp_path / "out"))
    assert load_counts == dict(NO_LOADS, load_students=1)


def fewer_students(tmp_path, corpus, out):
    """Half the cohort, so some students whose pages ``out`` holds depart."""
    rows = corpus["students"].read_text(encoding="utf-8").splitlines(keepends=True)
    smaller = tmp_path / "smaller.jsonl"
    smaller.write_text("".join(rows[:len(rows) // 2]), encoding="utf-8")
    departed = {json.loads(row)["id"] for row in rows[len(rows) // 2:]}
    assert departed & {p.stem for p in (out / "pages").glob("*.html")}
    return dict(students=smaller)


def smaller_k(tmp_path, corpus, out):
    """A smaller ``k`` than the first run's 5."""
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["matching"]["k"] == 5
    return dict(k=2)


def damaged_outputs(tmp_path, corpus, out):
    """Cut ``matches.jsonl`` to 3 rows, and delete the report and the pages."""
    matches = out / "matches.jsonl"
    rows = matches.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(rows) > 3
    matches.write_text("".join(rows[:3]), encoding="utf-8")
    (out / "report.json").unlink()
    shutil.rmtree(out / "pages")
    return {}


@pytest.mark.parametrize("change", [fewer_students, smaller_k, damaged_outputs])
def test_a_rerun_into_a_used_out_dir_equals_a_fresh_run(tmp_path, corpus, change):
    out = tmp_path / "out"
    run_pipeline(make_config(corpus, out))
    overrides = change(tmp_path, corpus, out)
    run_pipeline(make_config(corpus, out, **overrides))
    run_pipeline(make_config(corpus, tmp_path / "fresh", **overrides))
    assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")


def test_a_report_that_fails_mid_write_leaves_the_previous_report_whole(tmp_path):
    model = pipeline.clf.ClassifierModel(weights=(0.0, 0.0, 0.0), bias=0.0,
                                         active_features=pipeline.clf.BASE_FEATURES,
                                         seed=0, epochs=1, lam=0.01)
    path = tmp_path / "report.json"

    def write(reasons):
        pipeline.report([], {}, [], model, reasons, path, k=5, fuzzy_threshold=0.8,
                        with_retweet=False, annotations=None, top10_cities=())

    write(["industry"])
    before = path.read_bytes()
    # json.dumps(..., ensure_ascii=False) keeps a lone surrogate, which
    # UTF-8 cannot encode, so the write fails after the file is opened
    with pytest.raises(UnicodeEncodeError):
        write(["\ud800"])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.fixture
def helpers(monkeypatch):
    """Every process that ``subprocess.Popen`` starts during the test."""
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]
    monkeypatch.setattr(subprocess, "Popen", recording)
    return started


def staged_entries(out):
    return [path.name for path in out.iterdir() if path.name.startswith(".pages.")]


def test_a_run_starts_one_page_helper_and_reaps_it(tmp_path, corpus, helpers):
    out = tmp_path / "out"
    run_pipeline(make_config(corpus, out))
    assert len(helpers) == 1 and helpers[0].returncode is not None
    assert staged_entries(out) == []


@pytest.mark.parametrize("stage", ["rank", "report"])
def test_a_run_that_fails_after_label_reaps_the_helper_and_leaves_no_staged_pages(
        tmp_path, corpus, monkeypatch, helpers, stage):
    def fail(config, paths, state):
        raise RuntimeError("injected failure")
    monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, fail)
    out = tmp_path / "out"
    with pytest.raises(PipelineError, match=f"stage {stage!r}: injected failure"):
        run_pipeline(make_config(corpus, out))
    assert len(helpers) == 1 and helpers[0].returncode is not None
    assert staged_entries(out) == []


def test_an_unsafe_weakly_college_id_reaches_no_helper_and_fails_the_pages_stage(
        tmp_path, corpus, helpers):
    rows = [json.loads(line) for line in corpus["students"].read_text(encoding="utf-8").splitlines()]
    weak = labeling.label_corpus(pipeline.load_students(corpus["students"]).records,
                                 labeling.default_rules()).labels
    row = next(row for row in rows if weak[row["id"]].value == labeling.COLLEGE)
    row["id"] = "../escape"
    students = tmp_path / "students.jsonl"
    students.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(PipelineError) as err:
        run_pipeline(make_config(corpus, out, students=students, annotations=None))
    assert err.value.stage == "pages" and "'../escape' is not filename-safe" in str(err.value)
    assert len(helpers) == 1 and helpers[0].returncode is not None
    assert not list(tmp_path.rglob("escape*"))
    assert staged_entries(out) == []


def stop_at_once(monkeypatch):
    """Kill each helper as soon as it starts, before it creates a file."""
    popen = subprocess.Popen

    def stopped(*args, **kwargs):
        proc = popen(*args, **kwargs)
        proc.kill()
        proc.wait()
        return proc
    monkeypatch.setattr(subprocess, "Popen", stopped)


def no_interpreter(monkeypatch):
    monkeypatch.setattr(sys, "executable", "")


def no_process(monkeypatch):
    """Make starting a process fail, as on a host that allows no new process."""
    def refused(*args, **kwargs):
        raise OSError("no process can be started")
    monkeypatch.setattr(subprocess, "Popen", refused)


@pytest.mark.parametrize("without_helper", [stop_at_once, no_interpreter, no_process])
def test_pages_are_the_same_bytes_without_a_working_helper(tmp_path, corpus, monkeypatch,
                                                           helpers, without_helper):
    run_pipeline(make_config(corpus, tmp_path / "helped"))
    assert len(helpers) == 1
    without_helper(monkeypatch)
    run_pipeline(make_config(corpus, tmp_path / "unhelped"))
    assert tree_bytes(tmp_path / "unhelped") == tree_bytes(tmp_path / "helped")
    assert staged_entries(tmp_path / "unhelped") == []


def test_errors_name_the_failing_stage(tmp_path, corpus):
    config = make_config(corpus, tmp_path / "out",
                         candidates=tmp_path / "no-such-file.jsonl")
    with pytest.raises(PipelineError) as err:
        run_pipeline(config)
    assert err.value.stage == "identify"


def test_bad_student_rows_fail_the_label_stage_naming_the_file(tmp_path, corpus):
    rows = corpus["students"].read_text(encoding="utf-8").splitlines(keepends=True)
    students = tmp_path / "students.jsonl"
    students.write_text(rows[0] + "{broken\n" + "".join(rows[1:]) + "[1, 2]\n",
                        encoding="utf-8")
    with pytest.raises(PipelineError) as err:
        run_pipeline(make_config(corpus, tmp_path / "out", students=students))
    assert err.value.stage == "label"
    assert f"2 bad student rows in {students} (first: line 2: invalid JSON" in str(err.value)


@pytest.mark.parametrize("bad_line", ["{broken", "[1, 2]"])
def test_a_bad_annotations_line_fails_the_report_stage_by_file_and_line(tmp_path, corpus,
                                                                        bad_line):
    annotations = tmp_path / "gt.jsonl"
    annotations.write_text('\n{"subject_id": "s1"}\n' + bad_line + "\n", encoding="utf-8")
    with pytest.raises(PipelineError) as err:
        run_pipeline(make_config(corpus, tmp_path / "out", annotations=annotations))
    assert err.value.stage == "report"
    assert f"{annotations} line 3" in str(err.value)


def test_config_rejects_unknown_keys(tmp_path, corpus):
    with pytest.raises(ValueError) as err:
        PipelineConfig.from_dict(
            {"students": "a", "candidates": "b", "out_dir": "c", "mystery": 1},
            base_dir=tmp_path,
        )
    assert "mystery" in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("k", "5"), ("k", True), ("k", None), ("seed", 1.5), ("epochs", None), ("cv_folds", "3"),
    ("lam", "0.1"), ("fuzzy_threshold", False), ("with_retweet", "no"), ("with_retweet", 0),
    ("top10_cities", "Boston"), ("top10_cities", ["Boston, MA", 7]), ("top10_cities", None),
    ("survey_url", 5), ("profile_url_template", ["x"]), ("students", 3), ("annotations", 1),
    ("fuzzy_threshold", 1.5), ("lam", 0), ("lam", float("inf")), ("seed", -1), ("epochs", -3),
    ("epochs", 0), ("survey_url", "ftp://example.org/s"), ("survey_url", "example.org/s"),
    ("profile_url_template", "https://x.org/{name}"), ("profile_url_template", "https://x.org/{}"),
    ("profile_url_template", "javascript:alert({id})"), ("profile_url_template", "https://x.org/{"),
])
def test_config_rejects_values_of_the_wrong_type(key, value):
    data = {"students": "a", "candidates": "b", "out_dir": "c", key: value}
    with pytest.raises(ValueError, match=repr(key)):
        PipelineConfig.from_dict(data)
    # A config built in code is checked too, its paths included.
    with pytest.raises(ValueError, match=repr(key)):
        PipelineConfig(**data)


@pytest.mark.parametrize("key, value", [("survey_url", "ftp://example.org/s"),
                                        ("profile_url_template", "https://x.org/{name}")])
def test_a_link_the_pages_stage_refuses_is_a_config_error_before_any_stage_runs(
        tmp_path, corpus, key, value):
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({
        "students": str(corpus["students"]), "candidates": str(corpus["candidates"]),
        "out_dir": "out", key: value,
    }), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        PipelineConfig.load(config_path)
    assert str(err.value).startswith(f"pipeline config key {key!r} must be ")
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert not (tmp_path / "out").exists()


def test_config_takes_every_link_the_pages_stage_takes():
    config = PipelineConfig(students="a", candidates="b", out_dir="c", survey_url="",
                            profile_url_template="http://example.org/people?id={id}&ref=x")
    assert config.survey_url == ""
    for url in (None, "https://example.com/survey?a=1&b=2"):
        assert PipelineConfig(students="a", candidates="b", out_dir="c",
                              survey_url=url).survey_url == url


def test_config_built_in_code_takes_string_paths(tmp_path, corpus):
    config = make_config(corpus, str(tmp_path / "out"), students=str(corpus["students"]))
    assert isinstance(config.out_dir, Path) and isinstance(config.students, Path)
    run_pipeline(config)
    run_pipeline(make_config(corpus, tmp_path / "paths"))
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "paths")


def test_config_takes_ints_as_numbers_and_null_as_the_default(tmp_path):
    config = PipelineConfig.from_dict({
        "students": "a", "candidates": "b", "out_dir": "c", "lam": 1, "fuzzy_threshold": 1,
        "annotations": None, "survey_url": None, "profile_url_template": None,
        "top10_cities": ["Boston, MA"],
    }, base_dir=tmp_path)
    assert (config.lam, config.fuzzy_threshold) == (1, 1)
    assert config.annotations is None and config.survey_url is None
    assert config.profile_url_template == PROFILE_URL_TEMPLATE
    assert config.top10_cities == ("Boston, MA",)
    assert config.students == tmp_path / "a"


def test_config_load_resolves_paths_against_the_config_file(tmp_path, corpus):
    nested = tmp_path / "conf"
    nested.mkdir()
    (nested / "students.jsonl").write_bytes(corpus["students"].read_bytes())
    (nested / "candidates.jsonl").write_bytes(corpus["candidates"].read_bytes())
    config_path = nested / "pipeline.json"
    config_path.write_text(json.dumps({
        "students": "students.jsonl",
        "candidates": "candidates.jsonl",
        "out_dir": "out",
    }), encoding="utf-8")
    config = PipelineConfig.load(config_path)
    assert config.students == nested / "students.jsonl"
    assert config.out_dir == nested / "out"
    result = run_pipeline(config)
    assert result.paths["report"].exists()
