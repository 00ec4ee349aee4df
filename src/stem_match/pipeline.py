"""End-to-end orchestration: label → classify → identify → attributes → rank → report → pages.

Each stage is one public function over parsed inputs and explicit output
paths that returns what it wrote; ``run_pipeline`` and the CLI subcommands
both call it.  Loading inputs is the caller's: a pipeline run rejects bad
rows, the CLI skips them.  Each stage writes its outputs under the
configured output directory, so any stage can be rerun standalone and a
rerun over unchanged inputs reproduces its outputs byte for byte.
``run_pipeline`` runs every stage and rebuilds every artifact from the
inputs; within one run the stages hand their parsed artifacts to each
other in memory, so the students file is parsed once and a run reads back
none of the files it writes.  To rebuild only part of a run, call the
stages, or the CLI's stage subcommands, on the files of an earlier run.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import attributes as attr
from . import classifier as clf
from . import labeling
from . import matching
from . import pages as pages_mod
from . import rolemodels
from .matching import GroundTruthAnnotation, MatchResult
from .records import (AttributeProfile, CandidateRecord, LoadResult, RecordError,
                      StudentRecord, _is_int, load_candidates, load_students, read_jsonl,
                      write_atomic, write_jsonl)

STAGES = ("label", "classify", "identify", "attributes", "rank", "report", "pages")

DEFAULT_CV_FOLDS = 10


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


_PATH = (lambda v: isinstance(v, (str, os.PathLike)), "a path")
_OPTIONAL_PATH = (lambda v: v is None or isinstance(v, (str, os.PathLike)), "a path or null")


def _is_url(v) -> bool:
    """Whether the pages stage takes ``v`` as a link."""
    try:
        pages_mod._check_url(v)
    except ValueError:
        return False
    return True


def _is_url_template(v) -> bool:
    """Whether ``v`` makes a link the pages stage takes of a role model's id."""
    try:
        url = v.format(id="c1")
    except (AttributeError, LookupError, TypeError, ValueError):
        return False
    return _is_url(url)


# Config key -> (accepts(value), what it must be), checked by ``__post_init__``.
_CONFIG_KEYS = {
    **dict.fromkeys(("students", "candidates", "out_dir"), _PATH),
    **dict.fromkeys(("annotations", "rules", "taxonomy", "majors"), _OPTIONAL_PATH),
    # An empty survey_url, like null, means the pages carry no survey link.
    "survey_url": (lambda v: v is None or v == "" or isinstance(v, str) and _is_url(v),
                   "null or an http(s) URL"),
    "profile_url_template": (lambda v: isinstance(v, str) and _is_url_template(v),
                             "a template whose .format(id=...) is an http(s) URL"),
    "seed": clf._RULES["seed"],
    "epochs": clf._RULES["epochs"],
    "k": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "cv_folds": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "fuzzy_threshold": (lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= 1,
                        "a number within [0, 1]"),
    "lam": clf._RULES["lam"],
    "with_retweet": (lambda v: isinstance(v, bool), "true or false"),
    "top10_cities": (lambda v: isinstance(v, (list, tuple)) and all(isinstance(c, str) for c in v),
                     "a list of strings"),
}
_PATH_KEYS = ("students", "candidates", "out_dir", "annotations", "rules", "taxonomy", "majors")


def _check(key: str, value) -> None:
    accepts, kind = _CONFIG_KEYS[key]
    if not accepts(value):
        raise ValueError(f"pipeline config key {key!r} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative run configuration.

    Relative paths are resolved against the directory of the config file
    they were loaded from (the current directory when built in code).  A
    path field takes a string or any ``os.PathLike`` and holds a ``Path``.  A
    ``profile_url_template`` of None takes the default template.
    """

    students: Path
    candidates: Path
    out_dir: Path
    annotations: Path | None = None
    rules: Path | None = None
    taxonomy: Path | None = None
    majors: Path | None = None
    k: int = matching.DEFAULT_K
    fuzzy_threshold: float = matching.DEFAULT_FUZZY_THRESHOLD
    with_retweet: bool = False
    seed: int = clf.TrainConfig.seed
    epochs: int = clf.TrainConfig.epochs
    lam: float = clf.TrainConfig.lam
    cv_folds: int = DEFAULT_CV_FOLDS
    survey_url: str | None = None
    profile_url_template: str = pages_mod.PROFILE_URL_TEMPLATE
    top10_cities: tuple[str, ...] = matching.DEFAULT_TOP10_CITIES

    def __post_init__(self) -> None:
        if self.profile_url_template is None:
            object.__setattr__(self, "profile_url_template", pages_mod.PROFILE_URL_TEMPLATE)
        for key in _CONFIG_KEYS:
            _check(key, getattr(self, key))
        for key in _PATH_KEYS:
            if getattr(self, key) is not None:
                object.__setattr__(self, key, Path(getattr(self, key)))
        object.__setattr__(self, "top10_cities", tuple(self.top10_cities))

    @classmethod
    def from_dict(cls, data: Mapping, base_dir: str | Path = ".") -> "PipelineConfig":
        if not isinstance(data, Mapping):
            raise ValueError("pipeline config must be a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown pipeline config keys: {sorted(unknown)}")
        for required in ("students", "candidates", "out_dir"):
            if required not in data:
                raise ValueError(f"pipeline config is missing {required!r}")
        kwargs = dict(data)
        for key in _PATH_KEYS:
            if isinstance(data.get(key), (str, os.PathLike)):
                kwargs[key] = Path(base_dir) / data[key]
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc.msg}") from exc
        return cls.from_dict(data, base_dir=path.parent)

    def artifact_paths(self) -> dict[str, Path]:
        out = self.out_dir
        return {
            "labels": out / "labels.jsonl",
            "model": out / "model.txt",
            "predicted": out / "predicted.jsonl",
            "rolemodels": out / "rolemodels.jsonl",
            "student_profiles": out / "student_profiles.jsonl",
            "rolemodel_profiles": out / "rolemodel_profiles.jsonl",
            "matches": out / "matches.jsonl",
            "report": out / "report.json",
            "pages": out / "pages",
        }


@dataclass
class PipelineResult:
    """Artifact paths plus the parsed report of one run."""

    paths: dict[str, Path]
    report: dict


def label(students: Sequence[StudentRecord], rules_path: str | Path | None,
          labels_out: str | Path) -> labeling.LabelPartition:
    """Weakly label ``students`` with the rules at ``rules_path`` (bundled when None)."""
    rules = labeling.load_rules(rules_path) if rules_path else labeling.default_rules()
    partition = labeling.label_corpus(students, rules)
    write_jsonl(labels_out, labeling.label_rows(partition, students))
    return partition


@dataclass(frozen=True)
class ClassifyResult:
    """The trained model, how many students it was trained on, and the predicted-file rows."""

    model: clf.ClassifierModel
    trained: int
    rows: list[dict]


def classify(students: Sequence[StudentRecord], labels: Mapping[str, str],
             train_config: clf.TrainConfig, cv_folds: int, predicted_out: str | Path,
             model_out: str | Path | None) -> ClassifyResult:
    """Train on the weak ``labels`` (student id → label) and predict the unlabeled students.

    Students with tweets and a college / non-college weak label are the
    training set.  The model is saved to ``model_out`` unless it is None.
    """
    train_records = [
        record for record in students
        if record.tweets and labels.get(record.id) in (labeling.COLLEGE, labeling.NON_COLLEGE)
    ]
    features = [clf.extract_features(r, train_config.with_retweet) for r in train_records]
    train_labels = [labels[r.id] for r in train_records]

    # Fold-wise training needs at least two examples of each class in every
    # training split; requiring 2·k per class guarantees that, otherwise the
    # model is trained on everything and CV accuracy is left unreported.
    class_counts = {
        value: train_labels.count(value) for value in (labeling.COLLEGE, labeling.NON_COLLEGE)
    }
    cv_accuracy = None
    if min(class_counts.values(), default=0) >= 2 * cv_folds:
        cv_accuracy = clf.cross_validate(features, train_labels, cv_folds, train_config)
    model = clf.train(features, train_labels, train_config)
    model = replace(model, cv_accuracy=cv_accuracy)
    if model_out is not None:
        clf.save_model(model, model_out)

    unlabeled = [i for i, record in enumerate(students)
                 if labels.get(record.id, labeling.UNLABELED) == labeling.UNLABELED and record.tweets]
    predicted = dict(zip(unlabeled, clf.infer(model, [
        clf.extract_features(students[i], train_config.with_retweet) for i in unlabeled])))
    rows = []
    for i, record in enumerate(students):
        weak = labels.get(record.id, labeling.UNLABELED)
        college = weak == labeling.COLLEGE or predicted.get(i) == labeling.COLLEGE
        row = {"id": record.id, "weak_label": weak, "college": college}
        if i in predicted:
            row["predicted"] = predicted[i]
        rows.append(row)
    write_jsonl(predicted_out, rows)
    return ClassifyResult(model, len(train_records), rows)


def load_taxonomy_and_majors(taxonomy_path: str | Path | None, majors_path: str | Path | None
                             ) -> tuple[rolemodels.IndustryTaxonomy, rolemodels.StemMajorList]:
    """The industry taxonomy and STEM major list at the given paths (bundled when None)."""
    taxonomy = rolemodels.load_taxonomy(taxonomy_path) if taxonomy_path else rolemodels.default_taxonomy()
    majors = rolemodels.load_majors(majors_path) if majors_path else rolemodels.default_majors()
    return taxonomy, majors


def identify(candidates: Iterable[CandidateRecord], taxonomy: rolemodels.IndustryTaxonomy,
             majors: rolemodels.StemMajorList, rolemodels_out: str | Path) -> rolemodels.FilterResult:
    """Keep the STEM role models among ``candidates``, each with its reason."""
    result = rolemodels.filter_role_models(candidates, taxonomy, majors)
    write_jsonl(rolemodels_out, (
        {**candidate.to_dict(), "reason": result.decisions[candidate.id]}
        for candidate in result.role_models
    ))
    return result


def load_rolemodels(path: str | Path) -> list[CandidateRecord]:
    """Role models as the identify stage wrote them; a repeated role-model
    id is fatal, like any other invalid row.  The reason each was kept is
    not read back."""
    shared: dict = {}
    return read_jsonl(path, lambda row: CandidateRecord.from_dict(row, shared=shared),
                      key=lambda record: record.id)


def _predicted_row(row: dict) -> dict:
    college = row.get("college")
    if not isinstance(college, bool):
        raise RecordError(f"field 'college' must be true or false, got {college!r}")
    return row


def load_predicted(path: str | Path) -> list[dict]:
    """The classify stage's rows; a row without a student id, with a
    repeated one, or whose ``college`` is not a boolean, is fatal."""
    return read_jsonl(path, _predicted_row, key=lambda row: row.get("id"))


def college_students(students: Iterable[StudentRecord], predicted_rows: Iterable[Mapping]
                     ) -> list[StudentRecord]:
    """The ``students`` whose row of the classify stage says ``college: true``."""
    college = {row["id"] for row in predicted_rows if row.get("college") is True}
    return [record for record in students if record.id in college]


def attributes(records: Iterable[StudentRecord | CandidateRecord], profiles_out: str | Path
               ) -> list[tuple[str, AttributeProfile]]:
    """Write one resolved attribute profile per record; returns the (id, profile) pairs."""
    pairs = [(record.id, attr.build_profile(record)) for record in records]
    attr.write_profiles(profiles_out, pairs)
    return pairs


def rank(student_profiles: Sequence[tuple[str, AttributeProfile]],
         rolemodel_profiles: Sequence[tuple[str, AttributeProfile]],
         k: int, fuzzy_threshold: float, matches_out: str | Path) -> list[MatchResult]:
    """Rank the role models for every student and write the top ``k`` of each."""
    results = matching.match_corpus(student_profiles, rolemodel_profiles, k, fuzzy_threshold)
    matching.write_matches(matches_out, results)
    return results


def report(results: Sequence[MatchResult], labels: Mapping[str, str],
           predicted_rows: Sequence[Mapping], model: clf.ClassifierModel,
           reasons: Sequence[str], report_out: str | Path, *,
           k: int, fuzzy_threshold: float, with_retweet: bool,
           annotations: Mapping[str, GroundTruthAnnotation] | None,
           top10_cities: Sequence[str]) -> dict:
    """Summarize a run's artifacts, plus accuracy per level when annotated."""
    summary: dict = {
        "cohort": {
            "students": len(predicted_rows),
            "weak_labels": labeling.label_counts(labels.values()),
            "college": sum(1 for row in predicted_rows if row.get("college") is True),
            "classifier_college": sum(
                1 for row in predicted_rows if row.get("predicted") == labeling.COLLEGE
            ),
        },
        "classifier": {
            "cv_accuracy": model.cv_accuracy,
            "with_retweet": with_retweet,
            "features": list(model.active_features),
        },
        "rolemodels": {"kept": len(reasons), "reasons": dict(Counter(reasons))},
        "matching": {
            "students_ranked": len(results),
            "k": k,
            "fuzzy_threshold": fuzzy_threshold,
            "no_signal_students": sum(1 for r in results if r.all_no_signal()),
        },
    }
    if annotations is not None:
        summary["evaluation"] = {
            level: matching.evaluate(results, annotations, level, top10_cities, k).to_dict()
            for level in matching.LEVELS
        }
    text = json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False)
    write_atomic(report_out, [text + "\n"])
    return summary


def pages(results: Iterable[MatchResult], display_names: Mapping[str, str],
          role_models: Iterable[CandidateRecord], staging: pages_mod.PageStaging,
          survey_url: str | None, url_template: str) -> list[Path]:
    """Write one page per student, listing its ranked role models, into
    ``staging``'s directory."""
    return pages_mod.write_pages(
        results, display_names, {r.id: r for r in role_models},
        staging, survey_url=survey_url, url_template=url_template,
    )


def _checked(loaded: LoadResult, kind: str, path: Path) -> list:
    if loaded.errors:
        first = loaded.errors[0]
        raise ValueError(f"{len(loaded.errors)} bad {kind} rows in {path} "
                         f"(first: line {first.line}: {first.message})")
    return list(loaded.records)


def _stage_label(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    # Called through this module's global name, so that a wrapper rebinding
    # it, such as a tracer or a load counter, sees the one load of a run.
    state["students"] = _checked(load_students(config.students), "student", config.students)
    partition = label(state["students"], config.rules, paths["labels"])
    state["labels"] = {sid: weak.value for sid, weak in partition.labels.items()}
    # Every weakly labelled college student is in the cohort and gets a page.
    state["staging"].reserve(sid for sid, value in state["labels"].items()
                             if value == labeling.COLLEGE)


def _stage_classify(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    train_config = clf.TrainConfig(
        seed=config.seed, epochs=config.epochs, lam=config.lam, with_retweet=config.with_retweet
    )
    result = classify(state["students"], state["labels"], train_config, config.cv_folds,
                      paths["predicted"], paths["model"])
    state["model"], state["predicted"] = result.model, result.rows
    state["staging"].reserve(row["id"] for row in result.rows
                             if row.get("predicted") == labeling.COLLEGE)


def _stage_identify(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    taxonomy, majors = load_taxonomy_and_majors(config.taxonomy, config.majors)
    loaded = load_candidates(config.candidates)
    result = identify(_checked(loaded, "candidate", config.candidates), taxonomy, majors,
                      paths["rolemodels"])
    state["rolemodels"] = result.role_models
    state["reasons"] = [result.decisions[c.id] for c in result.role_models]


def _stage_attributes(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    students = state.pop("students")
    state["student_profiles"] = attributes(college_students(students, state["predicted"]),
                                           paths["student_profiles"])
    state["rolemodel_profiles"] = attributes(state["rolemodels"], paths["rolemodel_profiles"])
    state["display_names"] = {r.id: r.display_name for r in students}


def _stage_rank(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    state["matches"] = rank(state.pop("student_profiles"), state.pop("rolemodel_profiles"),
                            config.k, config.fuzzy_threshold, paths["matches"])


def _stage_report(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    annotations = None
    if config.annotations is not None:
        annotations = matching.load_annotations(config.annotations)
    state["report"] = report(
        state["matches"], state.pop("labels"), state.pop("predicted"), state.pop("model"),
        state.pop("reasons"), paths["report"], k=config.k,
        fuzzy_threshold=config.fuzzy_threshold, with_retweet=config.with_retweet,
        annotations=annotations, top10_cities=config.top10_cities,
    )


def _stage_pages(config: PipelineConfig, paths: Mapping[str, Path], state: dict) -> None:
    pages(state.pop("matches"), state.pop("display_names"), state.pop("rolemodels"),
          state["staging"], config.survey_url, config.profile_url_template)


_STAGE_FUNCS = {
    "label": _stage_label,
    "classify": _stage_classify,
    "identify": _stage_identify,
    "attributes": _stage_attributes,
    "rank": _stage_rank,
    "report": _stage_report,
    "pages": _stage_pages,
}


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run all stages in order; raises PipelineError naming a failed stage.

    The stages hand their parsed artifacts to each other by name in one
    dict; a stage ``pop``s an artifact when it is its last reader, so that
    it can be freed.  The pages' temporary directory and its helper process
    come first: from the end of ``label`` on, the helper creates the files
    of the pages that the run will write while the other stages compute.
    However the run ends, it stops the helper and deletes the directory,
    unless the pages stage put it in place.
    """
    paths = config.artifact_paths()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with pages_mod.PageStaging(paths["pages"]) as staging:
        state: dict = {"staging": staging}
        for stage in STAGES:
            try:
                _STAGE_FUNCS[stage](config, paths, state)
            except Exception as exc:
                raise PipelineError(stage, str(exc)) from exc
    return PipelineResult(paths=paths, report=state.pop("report"))
