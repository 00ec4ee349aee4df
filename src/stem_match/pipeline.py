"""End-to-end orchestration: label → classify → identify → attributes → rank → report → pages.

Each stage is one public function over parsed inputs and explicit paths,
which ``run_pipeline`` and the CLI subcommands both call.  Loading inputs
is the caller's: a pipeline run rejects bad rows, the CLI skips them.
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
from typing import Iterable, Mapping, Sequence

from . import attributes as attr
from . import classifier as clf
from . import labeling
from . import matching
from . import pages as pages_mod
from . import rolemodels
from .matching import GroundTruthAnnotation, MatchResult
from .records import (AttributeProfile, CandidateRecord, LoadResult, StudentRecord,
                      load_candidates, load_students, read_jsonl, write_jsonl)

STAGES = ("label", "classify", "identify", "attributes", "rank", "report", "pages")

DEFAULT_CV_FOLDS = 10


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


_STR = (lambda v: isinstance(v, str), "a string")
_OPTIONAL_STR = (lambda v: v is None or isinstance(v, str), "a string or null")
_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number")

# Config key -> (accepts(value), what it must be).  A null optional key
# takes the field's default.
_CONFIG_KEYS = {
    **dict.fromkeys(("students", "candidates", "out_dir"), _STR),
    **dict.fromkeys(("annotations", "rules", "taxonomy", "majors", "survey_url",
                     "profile_url_template"), _OPTIONAL_STR),
    **dict.fromkeys(("k", "seed", "epochs", "cv_folds"), _INT),
    **dict.fromkeys(("fuzzy_threshold", "lam"), _NUMBER),
    "with_retweet": (lambda v: isinstance(v, bool), "true or false"),
    "top10_cities": (lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
                     "a list of strings"),
}
_PATH_KEYS = ("students", "candidates", "out_dir", "annotations", "rules", "taxonomy", "majors")


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
    cv_folds: int = DEFAULT_CV_FOLDS
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
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown pipeline config keys: {sorted(unknown)}")
        for required in ("students", "candidates", "out_dir"):
            if required not in data:
                raise ValueError(f"pipeline config is missing {required!r}")
        kwargs: dict = {}
        for key, value in data.items():
            accepts, kind = _CONFIG_KEYS[key]
            if not accepts(value):
                raise ValueError(f"pipeline config key {key!r} must be {kind}, got {value!r}")
            if value is not None:
                kwargs[key] = value
        for key in _PATH_KEYS:
            if key in kwargs:
                kwargs[key] = Path(base_dir) / kwargs[key]
        if "top10_cities" in kwargs:
            kwargs["top10_cities"] = tuple(kwargs["top10_cities"])
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


def label(students: Sequence[StudentRecord], rules_path: str | Path | None,
          labels_out: str | Path) -> labeling.LabelPartition:
    """Weakly label ``students`` with the rules at ``rules_path`` (bundled when None)."""
    rules = labeling.load_rules(rules_path) if rules_path else labeling.default_rules()
    partition = labeling.label_corpus(students, rules)
    write_jsonl(labels_out, labeling.label_rows(partition, students))
    return partition


@dataclass(frozen=True)
class ClassifyResult:
    """The trained model and how many students it was trained on and predicted."""

    model: clf.ClassifierModel
    trained: int
    predicted: int


def classify(students: Sequence[StudentRecord], labels_path: str | Path,
             train_config: clf.TrainConfig, cv_folds: int, predicted_out: str | Path,
             model_out: str | Path | None) -> ClassifyResult:
    """Train on the weak labels at ``labels_path`` and predict the unlabeled students.

    Students with tweets and a college / non-college weak label are the
    training set.  The model is saved to ``model_out`` unless it is None.
    """
    labels = labeling.read_labels(labels_path)
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

    rows = []
    n_predicted = 0
    for record in students:
        weak = labels.get(record.id, labeling.UNLABELED)
        predicted = None
        if weak == labeling.UNLABELED and record.tweets:
            predicted = clf.infer(model, clf.extract_features(record, train_config.with_retweet))
            n_predicted += 1
        college = weak == labeling.COLLEGE or predicted == labeling.COLLEGE
        row = {"id": record.id, "weak_label": weak, "college": college}
        if predicted is not None:
            row["predicted"] = predicted
        rows.append(row)
    write_jsonl(predicted_out, rows)
    return ClassifyResult(model, len(train_records), n_predicted)


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
    rows = []
    for candidate in result.role_models:
        row = candidate.to_dict()
        row["reason"] = result.decisions[candidate.id].reason
        rows.append(row)
    write_jsonl(rolemodels_out, rows)
    return result


def load_rolemodels(path: str | Path) -> list[CandidateRecord]:
    """Role models as the identify stage wrote them."""
    return [CandidateRecord.from_dict(row) for row in read_jsonl(path)]


def attributes(records: Iterable[StudentRecord | CandidateRecord], profiles_out: str | Path) -> int:
    """Write one resolved attribute profile per record; returns how many."""
    pairs = [(record.id, attr.build_profile(record)) for record in records]
    attr.write_profiles(profiles_out, pairs)
    return len(pairs)


def rank(student_profiles: Sequence[tuple[str, AttributeProfile]],
         rolemodel_profiles: Sequence[tuple[str, AttributeProfile]],
         k: int, fuzzy_threshold: float, matches_out: str | Path) -> list[MatchResult]:
    """Rank the role models for every student and write the top ``k`` of each."""
    results = matching.match_corpus(student_profiles, rolemodel_profiles, k, fuzzy_threshold)
    matching.write_matches(matches_out, results)
    return results


def report(results: Sequence[MatchResult], labels_path: str | Path, predicted_path: str | Path,
           model_path: str | Path, rolemodels_path: str | Path, report_out: str | Path, *,
           k: int, fuzzy_threshold: float, with_retweet: bool,
           annotations: Sequence[GroundTruthAnnotation] | None,
           top10_cities: Sequence[str]) -> dict:
    """Summarize a run's artifacts, plus accuracy per level when annotated."""
    labels = labeling.read_labels(labels_path)
    label_counts = {
        value: sum(1 for v in labels.values() if v == value) for value in labeling.LABEL_VALUES
    }
    predicted_rows = read_jsonl(predicted_path)
    model = clf.load_model(model_path)
    rolemodel_rows = read_jsonl(rolemodels_path)
    reason_counts: dict[str, int] = {}
    for row in rolemodel_rows:
        reason = row.get("reason", "unknown")
        reason_counts[reason] = reason_counts.get(reason, 0) + 1

    summary: dict = {
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
            "with_retweet": with_retweet,
            "features": list(model.active_features),
        },
        "rolemodels": {"kept": len(rolemodel_rows), "reasons": reason_counts},
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
    Path(report_out).write_text(text + "\n", encoding="utf-8", newline="\n")
    return summary


def pages(results: Iterable[MatchResult], display_names: Mapping[str, str],
          role_models: Iterable[CandidateRecord], pages_dir: str | Path,
          survey_url: str | None, url_template: str) -> list[Path]:
    """Write one page per student with at least one ranked role model."""
    return pages_mod.write_pages(
        [r for r in results if r.ranked], display_names, {r.id: r for r in role_models},
        pages_dir, survey_url=survey_url, url_template=url_template,
    )


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


def _checked(loaded: LoadResult, stage: str, kind: str) -> list:
    if loaded.errors:
        first = loaded.errors[0]
        raise PipelineError(
            stage, f"{len(loaded.errors)} bad {kind} rows (first: line {first.line}: {first.message})"
        )
    return list(loaded.records)


def _students(config: PipelineConfig, state: RunState, stage: str) -> list[StudentRecord]:
    if state.students is None:
        state.students = _checked(load_students(config.students), stage, "student")
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
    label(_students(config, state, "label"), config.rules, paths["labels"])


def _stage_classify(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    train_config = clf.TrainConfig(
        seed=config.seed, epochs=config.epochs, lam=config.lam, with_retweet=config.with_retweet
    )
    classify(_students(config, state, "classify"), paths["labels"], train_config,
             config.cv_folds, paths["predicted"], paths["model"])


def _stage_identify(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    taxonomy, majors = load_taxonomy_and_majors(config.taxonomy, config.majors)
    loaded = load_candidates(config.candidates, industries=taxonomy.groups)
    identify(_checked(loaded, "identify", "candidate"), taxonomy, majors, paths["rolemodels"])


def _stage_attributes(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    students = _students(config, state, "attributes")
    college = {
        row["id"] for row in read_jsonl(paths["predicted"])
        if isinstance(row.get("id"), str) and row.get("college") is True
    }
    attributes([r for r in students if r.id in college], paths["student_profiles"])
    attributes(load_rolemodels(paths["rolemodels"]), paths["rolemodel_profiles"])


def _stage_rank(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    students = attr.load_profiles(paths["student_profiles"])
    candidates = attr.load_profiles(paths["rolemodel_profiles"])
    state.matches = rank(students, candidates, config.k, config.fuzzy_threshold, paths["matches"])


def _stage_report(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    annotations = None
    if config.annotations is not None:
        annotations = matching.load_annotations(config.annotations)
    report(
        _matches(paths, state), paths["labels"], paths["predicted"], paths["model"],
        paths["rolemodels"], paths["report"], k=config.k,
        fuzzy_threshold=config.fuzzy_threshold, with_retweet=config.with_retweet,
        annotations=annotations, top10_cities=config.top10_cities,
    )


def _stage_pages(config: PipelineConfig, paths: Mapping[str, Path], state: RunState) -> None:
    pages(_matches(paths, state), _display_names(config, state),
          load_rolemodels(paths["rolemodels"]), paths["pages"],
          config.survey_url, config.profile_url_template)


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
    summary = json.loads(paths["report"].read_text(encoding="utf-8"))
    return PipelineResult(paths=paths, report=summary, skipped=skipped)
