"""End-to-end orchestration: label → classify → identify → attributes → rank → report → pages.

Each stage writes its outputs under the configured output directory, so
any stage can be rerun standalone and a rerun over unchanged inputs
reproduces its outputs byte for byte.  Within one ``run_pipeline`` call
the stages also hand parsed data to each other through a ``RunState``:
the students file is parsed once, and the rank stage's results go to the
report and pages stages without a round trip through ``matches.jsonl``.
A stage whose input is not in the state (run standalone, or after
``resume=True`` skipped the stage that produces it) reads the artifact
from disk.  ``resume=True`` skips stages whose outputs already exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from . import attributes as attr
from . import classifier as clf
from . import labeling
from . import matching
from . import pages as pages_mod
from . import rolemodels
from .matching import MatchResult
from .records import CandidateRecord, StudentRecord, load_candidates, load_students, read_jsonl, write_jsonl

STAGES = ("label", "classify", "identify", "attributes", "rank", "report", "pages")


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative run configuration.

    Relative paths are resolved against the directory of the config file
    they were loaded from (the current directory when built in code).
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
    seed: int = 42
    epochs: int = 200
    lam: float = 0.01
    cv_folds: int = 10
    survey_url: str | None = None
    profile_url_template: str = pages_mod.PROFILE_URL_TEMPLATE
    top10_cities: tuple[str, ...] = matching.DEFAULT_TOP10_CITIES

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")

    @classmethod
    def from_dict(cls, data: Mapping, base_dir: str | Path = ".") -> "PipelineConfig":
        if not isinstance(data, Mapping):
            raise ValueError("pipeline config must be a JSON object")
        base = Path(base_dir)
        known = {
            "students", "candidates", "out_dir", "annotations", "rules",
            "taxonomy", "majors", "k", "fuzzy_threshold", "with_retweet",
            "seed", "epochs", "lam", "cv_folds", "survey_url",
            "profile_url_template", "top10_cities",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown pipeline config keys: {sorted(unknown)}")
        for required in ("students", "candidates", "out_dir"):
            if required not in data:
                raise ValueError(f"pipeline config is missing {required!r}")

        def path_of(key: str) -> Path | None:
            value = data.get(key)
            if value is None:
                return None
            return base / str(value)

        kwargs: dict = {
            "students": path_of("students"),
            "candidates": path_of("candidates"),
            "out_dir": path_of("out_dir"),
            "annotations": path_of("annotations"),
            "rules": path_of("rules"),
            "taxonomy": path_of("taxonomy"),
            "majors": path_of("majors"),
        }
        for key in ("k", "fuzzy_threshold", "with_retweet", "seed", "epochs",
                    "lam", "cv_folds", "survey_url", "profile_url_template"):
            if key in data:
                kwargs[key] = data[key]
        if "top10_cities" in data:
            kwargs["top10_cities"] = tuple(data["top10_cities"])
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
    skipped: list[str] = field(default_factory=list)


@dataclass
class RunState:
    """Parsed data that one run hands from stage to stage.

    A field stays None until a stage of this run fills it.  ``students``
    is released after the attributes stage; later stages need only
    ``display_names`` (student id → display name).
    """

    students: list[StudentRecord] | None = None
    display_names: dict[str, str] | None = None
    matches: list[MatchResult] | None = None

    def release_students(self) -> None:
        if self.students is not None:
            self.display_names = {r.id: r.display_name for r in self.students}
            self.students = None


def _stage_outputs(paths: Mapping[str, Path], stage: str) -> list[Path]:
    by_stage = {
        "label": ["labels"],
        "classify": ["model", "predicted"],
        "identify": ["rolemodels"],
        "attributes": ["student_profiles", "rolemodel_profiles"],
        "rank": ["matches"],
        "report": ["report"],
        "pages": ["pages"],
    }
    return [paths[name] for name in by_stage[stage]]


def _load_students_checked(path: Path, stage: str) -> list[StudentRecord]:
    result = load_students(path)
    if result.errors:
        first = result.errors[0]
        raise PipelineError(
            stage, f"{len(result.errors)} bad student rows (first: line {first.line}: {first.message})"
        )
    return list(result.records)


def _students(config: PipelineConfig, state: RunState, stage: str) -> list[StudentRecord]:
    if state.students is None:
        state.students = _load_students_checked(config.students, stage)
    return state.students


def _display_names(config: PipelineConfig, state: RunState) -> dict[str, str]:
    if state.display_names is None:
        _students(config, state, "pages")
        state.release_students()
    return state.display_names


def _matches(paths: Mapping[str, Path], state: RunState) -> list[MatchResult]:
    if state.matches is None:
        state.matches = matching.load_matches(paths["matches"])
    return state.matches


def _stage_label(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    students = _students(config, state, "label")
    rules = labeling.load_rules(config.rules) if config.rules else labeling.default_rules()
    partition = labeling.label_corpus(students, rules)
    write_jsonl(paths["labels"], labeling.label_rows(partition, students))


def _stage_classify(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    students = _students(config, state, "classify")
    labels = labeling.read_labels(paths["labels"])
    train_config = clf.TrainConfig(
        seed=config.seed, epochs=config.epochs, lam=config.lam, with_retweet=config.with_retweet
    )

    train_records = [
        record for record in students
        if record.tweets and labels.get(record.id) in (labeling.COLLEGE, labeling.NON_COLLEGE)
    ]
    features = [clf.extract_features(r, config.with_retweet) for r in train_records]
    train_labels = [labels[r.id] for r in train_records]

    # Fold-wise training needs at least two examples of each class in every
    # training split; requiring 2·k per class guarantees that, otherwise the
    # model is trained on everything and CV accuracy is left unreported.
    class_counts = {
        value: train_labels.count(value) for value in (labeling.COLLEGE, labeling.NON_COLLEGE)
    }
    cv_accuracy = None
    if min(class_counts.values(), default=0) >= 2 * config.cv_folds:
        cv_accuracy = clf.cross_validate(features, train_labels, config.cv_folds, train_config)
    model = clf.train(features, train_labels, train_config)
    model = replace(model, cv_accuracy=cv_accuracy)
    clf.save_model(model, paths["model"])

    rows = []
    for record in students:
        weak = labels.get(record.id, labeling.UNLABELED)
        predicted = None
        if weak == labeling.UNLABELED and record.tweets:
            predicted = clf.infer(model, clf.extract_features(record, config.with_retweet))
        college = weak == labeling.COLLEGE or predicted == labeling.COLLEGE
        row = {"id": record.id, "weak_label": weak, "college": college}
        if predicted is not None:
            row["predicted"] = predicted
        rows.append(row)
    write_jsonl(paths["predicted"], rows)


def _stage_identify(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    taxonomy = rolemodels.load_taxonomy(config.taxonomy) if config.taxonomy else rolemodels.default_taxonomy()
    majors = rolemodels.load_majors(config.majors) if config.majors else rolemodels.default_majors()
    loaded = load_candidates(config.candidates, industries=taxonomy.groups)
    if loaded.errors:
        first = loaded.errors[0]
        raise PipelineError(
            "identify",
            f"{len(loaded.errors)} bad candidate rows (first: line {first.line}: {first.message})",
        )
    result = rolemodels.filter_role_models(loaded.records, taxonomy, majors)
    rows = []
    for candidate in result.role_models:
        row = candidate.to_dict()
        row["reason"] = result.decisions[candidate.id].reason
        rows.append(row)
    write_jsonl(paths["rolemodels"], rows)


def _college_ids(paths: Mapping[str, Path]) -> set[str]:
    return {
        row["id"] for row in read_jsonl(paths["predicted"])
        if isinstance(row.get("id"), str) and row.get("college") is True
    }


def _load_rolemodels(paths: Mapping[str, Path]) -> list[CandidateRecord]:
    return [CandidateRecord.from_dict(row) for row in read_jsonl(paths["rolemodels"])]


def _stage_attributes(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    students = _students(config, state, "attributes")
    college = _college_ids(paths)
    student_pairs = [
        (record.id, attr.build_profile(record)) for record in students if record.id in college
    ]
    attr.write_profiles(paths["student_profiles"], student_pairs)

    candidate_pairs = [
        (record.id, attr.build_profile(record)) for record in _load_rolemodels(paths)
    ]
    attr.write_profiles(paths["rolemodel_profiles"], candidate_pairs)


def _stage_rank(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    students = attr.load_profiles(paths["student_profiles"])
    candidates = attr.load_profiles(paths["rolemodel_profiles"])
    state.matches = matching.match_corpus(students, candidates, config.k, config.fuzzy_threshold)
    matching.write_matches(paths["matches"], state.matches)


def _stage_report(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    labels = labeling.read_labels(paths["labels"])
    label_counts = {
        value: sum(1 for v in labels.values() if v == value) for value in labeling.LABEL_VALUES
    }
    predicted_rows = read_jsonl(paths["predicted"])
    model = clf.load_model(paths["model"])
    rolemodel_rows = read_jsonl(paths["rolemodels"])
    reason_counts: dict[str, int] = {}
    for row in rolemodel_rows:
        reason = row.get("reason", "unknown")
        reason_counts[reason] = reason_counts.get(reason, 0) + 1
    results = _matches(paths, state)

    report: dict = {
        "cohort": {
            "students": len(predicted_rows),
            "weak_labels": label_counts,
            "college": sum(1 for row in predicted_rows if row.get("college") is True),
            "classifier_college": sum(
                1 for row in predicted_rows if row.get("predicted") == labeling.COLLEGE
            ),
        },
        "classifier": {
            "cv_accuracy": model.cv_accuracy,
            "with_retweet": config.with_retweet,
            "features": list(model.active_features),
        },
        "rolemodels": {"kept": len(rolemodel_rows), "reasons": reason_counts},
        "matching": {
            "students_ranked": len(results),
            "k": config.k,
            "fuzzy_threshold": config.fuzzy_threshold,
            "no_signal_students": sum(1 for r in results if r.all_no_signal()),
        },
    }
    if config.annotations is not None:
        annotations = matching.load_annotations(config.annotations)
        report["evaluation"] = {
            level: matching.evaluate(
                results, annotations, level, config.top10_cities, config.k
            ).to_dict()
            for level in matching.LEVELS
        }
    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
    paths["report"].write_text(text + "\n", encoding="utf-8", newline="\n")


def _stage_pages(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    names = _display_names(config, state)
    candidates = {r.id: r for r in _load_rolemodels(paths)}
    results = [r for r in _matches(paths, state) if r.ranked]
    pages_mod.write_pages(
        results, names, candidates, paths["pages"],
        survey_url=config.survey_url, url_template=config.profile_url_template,
    )


_STAGE_FUNCS = {
    "label": _stage_label,
    "classify": _stage_classify,
    "identify": _stage_identify,
    "attributes": _stage_attributes,
    "rank": _stage_rank,
    "report": _stage_report,
    "pages": _stage_pages,
}


def _outputs_exist(paths: Mapping[str, Path], stage: str) -> bool:
    return all(p.exists() for p in _stage_outputs(paths, stage))


def run_pipeline(config: PipelineConfig, resume: bool = False) -> PipelineResult:
    """Run all stages in order; raises PipelineError naming a failed stage."""
    paths = config.artifact_paths()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    state = RunState()
    skipped = []
    for stage in STAGES:
        if resume and _outputs_exist(paths, stage):
            skipped.append(stage)
        else:
            try:
                _STAGE_FUNCS[stage](config, paths, state)
            except PipelineError:
                raise
            except Exception as exc:
                raise PipelineError(stage, str(exc)) from exc
        if stage == "attributes":
            state.release_students()
    report = json.loads(paths["report"].read_text(encoding="utf-8"))
    return PipelineResult(paths=paths, report=report, skipped=skipped)
