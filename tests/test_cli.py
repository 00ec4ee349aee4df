"""Command-line entry points, exercised through ``main(argv)``."""

import json
import shutil

import pytest

from stem_match.cli import main
from stem_match.rolemodels import KEPT_REASONS


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    synth_config = root / "synth.json"
    synth_config.write_text(json.dumps({
        "seed": 31, "n_students": 30, "n_candidates": 90,
        "planted_fraction": 0.5,
    }), encoding="utf-8")
    assert main(["synth", "--config", str(synth_config), "--out-dir", str(root)]) == 0
    return root


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_synth_writes_the_corpus(corpus):
    for name in ("students.jsonl", "candidates.jsonl", "gt.jsonl"):
        assert (corpus / name).exists(), name
    assert len(read_lines(corpus / "students.jsonl")) == 30
    assert len(read_lines(corpus / "candidates.jsonl")) == 90


def test_stagewise_commands_chain_together(corpus, tmp_path):
    # outputs land in a directory that does not exist yet: every stage
    # command must create its own parents
    out = tmp_path / "nested" / "out"

    assert main(["label", "--students", str(corpus / "students.jsonl"),
                 "--out", str(out / "labels.jsonl")]) == 0
    labels = [json.loads(line) for line in read_lines(out / "labels.jsonl")]
    assert len(labels) == 30

    assert main(["classify", "--train", str(out / "labels.jsonl"),
                 "--students", str(corpus / "students.jsonl"),
                 "--model-out", str(out / "model.txt"),
                 "--out", str(out / "predicted.jsonl")]) == 0
    assert (out / "model.txt").exists()
    assert len(read_lines(out / "predicted.jsonl")) == 30

    assert main(["identify", "--candidates", str(corpus / "candidates.jsonl"),
                 "--out", str(out / "rolemodels.jsonl")]) == 0
    kept = [json.loads(line) for line in read_lines(out / "rolemodels.jsonl")]
    assert kept and all(row["reason"] for row in kept)

    assert main(["attributes", "--in", str(corpus / "students.jsonl"), "--kind", "student",
                 "--predicted", str(out / "predicted.jsonl"),
                 "--out", str(out / "sprof.jsonl")]) == 0
    assert main(["attributes", "--in", str(out / "rolemodels.jsonl"),
                 "--kind", "candidate", "--out", str(out / "cprof.jsonl")]) == 0

    assert main(["rank", "--students", str(out / "sprof.jsonl"),
                 "--rolemodels", str(out / "cprof.jsonl"),
                 "-k", "5", "--out", str(out / "matches.jsonl")]) == 0
    matches = [json.loads(line) for line in read_lines(out / "matches.jsonl")]
    # only the students classify marked college are ranked, as in a pipeline run
    college = [row["id"] for row in map(json.loads, read_lines(out / "predicted.jsonl"))
               if row["college"]]
    assert 0 < len(college) < 30
    assert [row["student_id"] for row in matches] == college
    assert all(len(row["ranked"]) <= 5 for row in matches)

    assert main(["evaluate", "--matches", str(out / "matches.jsonl"),
                 "--annotations", str(corpus / "gt.jsonl"),
                 "--level", "state-all",
                 "--out", str(out / "eval.json")]) == 0
    evaluation = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert evaluation["level"] == "state-all"
    assert evaluation["cohort_size"] == len(college)


def test_pipeline_command_runs_from_a_config_file(corpus, tmp_path):
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({
        "students": str(corpus / "students.jsonl"),
        "candidates": str(corpus / "candidates.jsonl"),
        "annotations": str(corpus / "gt.jsonl"),
        "out_dir": str(tmp_path / "out"),
        "cv_folds": 3,
    }), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_stage_commands_write_the_same_bytes_as_a_pipeline_run(tmp_path):
    # 120 students give at least 20 weak labels of each class, so the
    # classifier cross-validates and model.txt records a CV accuracy
    synth_config = tmp_path / "synth.json"
    synth_config.write_text(json.dumps({
        "seed": 31, "n_students": 120, "n_candidates": 90, "planted_fraction": 0.5,
    }), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(synth_config), "--out-dir", str(data)]) == 0
    students, candidates = str(data / "students.jsonl"), str(data / "candidates.jsonl")
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(json.dumps({
        "students": students, "candidates": candidates, "out_dir": str(tmp_path / "pipeline"),
    }), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    report = json.loads((tmp_path / "pipeline" / "report.json").read_text(encoding="utf-8"))
    assert report["classifier"]["cv_accuracy"] is not None

    out = tmp_path / "cli"
    assert main(["label", "--students", students, "--out", str(out / "labels.jsonl")]) == 0
    assert main(["classify", "--train", str(out / "labels.jsonl"), "--students", students,
                 "--model-out", str(out / "model.txt"),
                 "--out", str(out / "predicted.jsonl")]) == 0
    assert main(["identify", "--candidates", candidates,
                 "--out", str(out / "rolemodels.jsonl")]) == 0
    assert main(["attributes", "--in", students, "--kind", "student",
                 "--predicted", str(out / "predicted.jsonl"),
                 "--out", str(out / "student_profiles.jsonl")]) == 0
    assert main(["attributes", "--in", str(out / "rolemodels.jsonl"), "--kind", "candidate",
                 "--out", str(out / "rolemodel_profiles.jsonl")]) == 0
    assert main(["rank", "--students", str(out / "student_profiles.jsonl"),
                 "--rolemodels", str(out / "rolemodel_profiles.jsonl"),
                 "--out", str(out / "matches.jsonl")]) == 0
    for name in ("labels.jsonl", "model.txt", "predicted.jsonl", "rolemodels.jsonl",
                 "student_profiles.jsonl", "rolemodel_profiles.jsonl", "matches.jsonl"):
        assert (out / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes(), name


def run_pipeline_over(corpus, root, **settings):
    """The output directory of one pipeline run over ``corpus``, with annotations."""
    config_path = root / "pipeline.json"
    config_path.write_text(json.dumps({
        "students": str(corpus / "students.jsonl"),
        "candidates": str(corpus / "candidates.jsonl"),
        "annotations": str(corpus / "gt.jsonl"),
        "out_dir": str(root / "out"),
        **settings,
    }), encoding="utf-8")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    return root / "out"


@pytest.fixture(scope="module")
def pipeline_run(corpus, tmp_path_factory):
    return run_pipeline_over(corpus, tmp_path_factory.mktemp("cli-pipeline"))


@pytest.fixture(scope="module")
def k3_run(corpus, tmp_path_factory):
    return run_pipeline_over(corpus, tmp_path_factory.mktemp("cli-k3"), k=3, cv_folds=2)


def tree_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


# Each stage command, with its inputs taken from a pipeline run's directory
# (named "{out}") or the corpus ("{corpus}"), and the files it rewrites there.
REBUILDS = {
    "label": (["label", "--students", "{corpus}/students.jsonl", "--out", "{out}/labels.jsonl"],
              ("labels.jsonl",)),
    "classify": (["classify", "--train", "{out}/labels.jsonl",
                  "--students", "{corpus}/students.jsonl", "--model-out", "{out}/model.txt",
                  "--out", "{out}/predicted.jsonl"], ("model.txt", "predicted.jsonl")),
    "identify": (["identify", "--candidates", "{corpus}/candidates.jsonl",
                  "--out", "{out}/rolemodels.jsonl"], ("rolemodels.jsonl",)),
    "attributes-student": (["attributes", "--in", "{corpus}/students.jsonl", "--kind", "student",
                            "--predicted", "{out}/predicted.jsonl",
                            "--out", "{out}/student_profiles.jsonl"],
                           ("student_profiles.jsonl",)),
    "attributes-candidate": (["attributes", "--in", "{out}/rolemodels.jsonl",
                              "--kind", "candidate", "--out", "{out}/rolemodel_profiles.jsonl"],
                             ("rolemodel_profiles.jsonl",)),
    "rank": (["rank", "--students", "{out}/student_profiles.jsonl",
              "--rolemodels", "{out}/rolemodel_profiles.jsonl", "--out", "{out}/matches.jsonl"],
             ("matches.jsonl",)),
}


@pytest.mark.parametrize("stage", list(REBUILDS))
def test_a_stage_command_rebuilds_its_artifacts_from_the_files_of_a_pipeline_run(
        corpus, pipeline_run, tmp_path, stage):
    out = tmp_path / "out"
    shutil.copytree(pipeline_run, out)
    argv, rebuilt = REBUILDS[stage]
    for name in rebuilt:
        (out / name).unlink()
    assert main([arg.format(corpus=corpus, out=out) for arg in argv]) == 0
    assert tree_bytes(out) == tree_bytes(pipeline_run)


@pytest.mark.parametrize("level", ["city-all", "state-all", "city-top10", "state-top10"])
def test_evaluate_on_a_pipeline_runs_matches_gives_the_reports_accuracy(
        corpus, pipeline_run, tmp_path, level):
    assert main(["evaluate", "--matches", str(pipeline_run / "matches.jsonl"),
                 "--annotations", str(corpus / "gt.jsonl"), "--level", level,
                 "--out", str(tmp_path / "eval.json")]) == 0
    report = json.loads((pipeline_run / "report.json").read_text(encoding="utf-8"))
    assert json.loads((tmp_path / "eval.json").read_text(encoding="utf-8")) == \
        report["evaluation"][level]


@pytest.mark.parametrize("level", ["city-all", "state-all", "city-top10", "state-top10"])
def test_evaluate_reports_accuracy_up_to_the_k_the_matches_were_ranked_with(
        corpus, k3_run, tmp_path, level):
    # The pool holds more than three role models, so every ranked list has
    # three entries and evaluate reads k = 3 off the file, as the report used.
    assert main(["evaluate", "--matches", str(k3_run / "matches.jsonl"),
                 "--annotations", str(corpus / "gt.jsonl"), "--level", level,
                 "--out", str(tmp_path / "eval.json")]) == 0
    report = json.loads((k3_run / "report.json").read_text(encoding="utf-8"))
    assert list(report["evaluation"][level]["accuracy"]) == ["1", "2", "3"]
    assert json.loads((tmp_path / "eval.json").read_text(encoding="utf-8")) == \
        report["evaluation"][level]


# The stage command that reads each keyed artifact, and the field of its id.
ARTIFACT_READERS = {
    "rolemodels.jsonl": (["attributes", "--in", "{out}/rolemodels.jsonl", "--kind", "candidate",
                          "--out", "{tmp}/written.jsonl"], "id"),
    "predicted.jsonl": (["attributes", "--in", "{corpus}/students.jsonl", "--kind", "student",
                         "--predicted", "{out}/predicted.jsonl", "--out", "{tmp}/written.jsonl"],
                        "id"),
    "matches.jsonl": (["evaluate", "--matches", "{out}/matches.jsonl",
                       "--annotations", "{corpus}/gt.jsonl", "--out", "{tmp}/written.jsonl"],
                      "student_id"),
}


@pytest.mark.parametrize("name", list(ARTIFACT_READERS))
def test_a_repeated_row_of_an_artifact_fails_its_reader_naming_file_line_and_id(
        corpus, pipeline_run, tmp_path, capsys, name):
    out = tmp_path / "out"
    shutil.copytree(pipeline_run, out)
    path = out / name
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(rows) + rows[0], encoding="utf-8")
    argv, id_field = ARTIFACT_READERS[name]
    assert main([arg.format(corpus=corpus, out=out, tmp=tmp_path) for arg in argv]) == 1
    repeated = json.loads(rows[0])[id_field]
    err = capsys.readouterr().err
    assert f"error: {path} line {len(rows) + 1}: duplicate id {repeated!r}" in err
    assert not (tmp_path / "written.jsonl").exists()


@pytest.mark.parametrize("reason", [["stem-industry"], 5, None, "non-stem-industry", "(none)"])
def test_attributes_ignores_the_reason_a_role_model_was_kept(pipeline_run, tmp_path, reason):
    # identify writes each row's reason; no reader reads it back, so a reason
    # of any type, a rejecting one, or none at all gives the same profiles.
    rolemodels = tmp_path / "rolemodels.jsonl"
    rows = [json.loads(line) for line in read_lines(pipeline_run / "rolemodels.jsonl")]
    assert rows and all(row["reason"] in KEPT_REASONS for row in rows)
    for row in rows:
        if reason == "(none)":
            del row["reason"]
        else:
            row["reason"] = reason
    rolemodels.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert main(["attributes", "--in", str(rolemodels), "--kind", "candidate",
                 "--out", str(tmp_path / "cprof.jsonl")]) == 0
    assert (tmp_path / "cprof.jsonl").read_bytes() == \
        (pipeline_run / "rolemodel_profiles.jsonl").read_bytes()


def test_predicted_with_candidate_profiles_is_a_clean_error(corpus, tmp_path, capsys):
    code = main(["attributes", "--in", str(corpus / "candidates.jsonl"), "--kind", "candidate",
                 "--predicted", str(tmp_path / "predicted.jsonl"),
                 "--out", str(tmp_path / "cprof.jsonl")])
    assert code == 1
    assert "--predicted" in capsys.readouterr().err
    assert not (tmp_path / "cprof.jsonl").exists()


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    code = main(["label", "--students", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "labels.jsonl")])
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err


def test_bad_flag_value_is_a_clean_error(corpus, tmp_path, capsys):
    assert main(["attributes", "--in", str(corpus / "students.jsonl"),
                 "--kind", "student", "--out", str(tmp_path / "sprof.jsonl")]) == 0
    assert main(["attributes", "--in", str(corpus / "candidates.jsonl"),
                 "--kind", "candidate", "--out", str(tmp_path / "cprof.jsonl")]) == 0
    code = main(["rank", "--students", str(tmp_path / "sprof.jsonl"),
                 "--rolemodels", str(tmp_path / "cprof.jsonl"),
                 "--fuzzy-threshold", "7.0",
                 "--out", str(tmp_path / "m.jsonl")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "m.jsonl").exists()


def test_classify_with_zero_epochs_is_a_clean_error(corpus, tmp_path, capsys):
    assert main(["label", "--students", str(corpus / "students.jsonl"),
                 "--out", str(tmp_path / "labels.jsonl")]) == 0
    code = main(["classify", "--train", str(tmp_path / "labels.jsonl"),
                 "--students", str(corpus / "students.jsonl"),
                 "--model-out", str(tmp_path / "model.txt"),
                 "--out", str(tmp_path / "predicted.jsonl"), "--epochs", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "predicted.jsonl").exists()


@pytest.mark.parametrize("lam", ["0", "-1", "nan", "inf"])
def test_classify_with_a_lam_that_is_not_a_finite_positive_number_is_a_clean_error(
        corpus, tmp_path, capsys, lam):
    assert main(["label", "--students", str(corpus / "students.jsonl"),
                 "--out", str(tmp_path / "labels.jsonl")]) == 0
    capsys.readouterr()
    code = main(["classify", "--train", str(tmp_path / "labels.jsonl"),
                 "--students", str(corpus / "students.jsonl"),
                 "--model-out", str(tmp_path / "model.txt"),
                 "--out", str(tmp_path / "predicted.jsonl"), "--lam", lam])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: lam must be a finite number > 0, got {float(lam)!r}"]
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "predicted.jsonl").exists()


def test_classify_with_a_negative_seed_is_a_clean_error(corpus, tmp_path, capsys):
    assert main(["label", "--students", str(corpus / "students.jsonl"),
                 "--out", str(tmp_path / "labels.jsonl")]) == 0
    capsys.readouterr()
    code = main(["classify", "--train", str(tmp_path / "labels.jsonl"),
                 "--students", str(corpus / "students.jsonl"),
                 "--model-out", str(tmp_path / "model.txt"),
                 "--out", str(tmp_path / "predicted.jsonl"), "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be an integer >= 0, got -1"]
    assert not (tmp_path / "model.txt").exists()
    assert not (tmp_path / "predicted.jsonl").exists()


def test_synth_with_a_config_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"n_students": "10"}), encoding="utf-8")
    assert main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: synth config key 'n_students' must be an integer >= 0, got '10'"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_file, bad_line", [
    pytest.param("annotations", "{broken", id="{broken"),
    pytest.param("annotations", "[1, 2]", id="[1, 2]"),
    pytest.param("annotations", '{"subject_id": "s2", "city": 5}', id="city-not-a-string"),
    pytest.param("matches", '{"student_id": "s2", "ranked": [[1]]}', id="entry-not-an-object"),
    pytest.param("matches", '{"student_id": "s2", "ranked": [{"candidate_id": "c1", '
                            '"no_signal": false}]}', id="entry-without-combined"),
])
def test_evaluate_names_the_bad_annotations_line_without_a_traceback(tmp_path, capsys,
                                                                     bad_file, bad_line):
    files = {
        "matches": (tmp_path / "matches.jsonl", '{"student_id": "s1", "ranked": []}'),
        "annotations": (tmp_path / "gt.jsonl", '{"subject_id": "s1"}'),
    }
    for name, (path, good_line) in files.items():
        path.write_text(f"\n{good_line}\n{bad_line if name == bad_file else ''}\n",
                        encoding="utf-8")
    code = main(["evaluate", "--matches", str(files["matches"][0]),
                 "--annotations", str(files["annotations"][0]),
                 "--out", str(tmp_path / "eval.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{files[bad_file][0]} line 3" in err
    assert "Traceback" not in err
