"""Command-line interface.

One subcommand for each of the stages ``label``, ``classify``,
``identify``, ``attributes`` and ``rank``, plus ``evaluate`` (the report's
evaluation of a matches file), ``pipeline`` (run every stage, ``report``
and ``pages`` included, from a config file, rebuilding every artifact)
and ``synth`` (generate a synthetic population).  Each stage subcommand
loads its inputs, warning about and skipping bad rows, then calls the
pipeline's function for that stage, so it writes the same bytes as a
pipeline run.  Stages read and write plain JSONL files so they can be
chained, inspected, and rerun by hand; they are how part of a run is
rebuilt.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attributes as attr
from . import classifier as clf
from . import labeling
from . import matching
from . import pipeline as pipeline_mod
from . import synthetic
from .records import LoadResult, load_candidates, load_students, write_atomic


def _records(result: LoadResult, path: str) -> list:
    """Warn about each bad row of ``path`` and return the good records."""
    for error in result.errors:
        print(f"warning: {path} line {error.line}: {error.message}", file=sys.stderr)
    return list(result.records)


def _cmd_label(args: argparse.Namespace) -> int:
    students = _records(load_students(args.students), args.students)
    partition = pipeline_mod.label(students, args.rules, args.out)
    print(f"labeled {len(students)} students: {partition.counts()}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    students = _records(load_students(args.students), args.students)
    config = clf.TrainConfig(seed=args.seed, epochs=args.epochs, lam=args.lam,
                             with_retweet=args.with_retweet)
    result = pipeline_mod.classify(students, labeling.read_labels(args.train), config,
                                   pipeline_mod.DEFAULT_CV_FOLDS, args.out, args.model_out)
    predicted = sum("predicted" in row for row in result.rows)
    print(f"trained on {result.trained} students, predicted {predicted}")
    return 0


def _cmd_identify(args: argparse.Namespace) -> int:
    taxonomy, majors = pipeline_mod.load_taxonomy_and_majors(args.taxonomy, args.majors)
    candidates = _records(load_candidates(args.candidates), args.candidates)
    result = pipeline_mod.identify(candidates, taxonomy, majors, args.out)
    print(f"kept {len(result.role_models)} of {len(candidates)} candidates: {result.counts}")
    return 0


def _cmd_attributes(args: argparse.Namespace) -> int:
    if args.kind == "student":
        records = _records(load_students(args.in_path), args.in_path)
        if args.predicted:
            predicted = pipeline_mod.load_predicted(args.predicted)
            records = pipeline_mod.college_students(records, predicted)
    elif args.predicted:
        raise ValueError("--predicted applies to --kind student only")
    else:
        records = pipeline_mod.load_rolemodels(args.in_path)
    profiles = pipeline_mod.attributes(records, args.out)
    print(f"wrote {len(profiles)} {args.kind} profiles")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    students = attr.load_profiles(args.students)
    candidates = attr.load_profiles(args.rolemodels)
    results = pipeline_mod.rank(students, candidates, args.k, args.fuzzy_threshold, args.out)
    no_signal = sum(1 for r in results if r.all_no_signal())
    print(f"ranked {len(candidates)} candidates for {len(results)} students "
          f"({no_signal} with no signal)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    results = matching.load_matches(args.matches)
    annotations = matching.load_annotations(args.annotations)
    # The k the matches were ranked with, as far as the file shows it.
    n_max = max((len(result.ranked) for result in results), default=0) or matching.DEFAULT_K
    report = matching.evaluate(results, annotations, args.level, n_max=n_max)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    write_atomic(args.out, [text + "\n"])
    print(f"{args.level}: cohort {report.cohort_size}, "
          f"accuracy@1 {report.accuracy_at(1):.3f}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = pipeline_mod.PipelineConfig.load(args.config)
    result = pipeline_mod.run_pipeline(config)
    for name in ("labels", "predicted", "rolemodels", "matches", "report"):
        print(f"{name}: {result.paths[name]}")
    print(f"pages: {result.paths['pages']}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise synthetic.SynthError(f"{args.config}: invalid JSON: {exc.msg}") from exc
        config = synthetic.SynthConfig.from_dict(data)
    else:
        config = synthetic.SynthConfig()
    paths = synthetic.generate_synthetic(config, args.out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stem-match",
                                     description="Match students with STEM role models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="weakly label students as college / non-college")
    p.add_argument("--students", required=True)
    p.add_argument("--rules", default=None, help="rules JSONL (default: bundled rules)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("classify", help="train on weak labels and predict the unlabeled")
    p.add_argument("--train", required=True, help="labels JSONL from the label step")
    p.add_argument("--students", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--with-retweet", action="store_true")
    p.add_argument("--model-out", default=None)
    p.add_argument("--seed", type=int, default=clf.TrainConfig.seed)
    p.add_argument("--epochs", type=int, default=clf.TrainConfig.epochs)
    p.add_argument("--lam", type=float, default=clf.TrainConfig.lam)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("identify", help="filter candidates down to STEM role models")
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--majors", default=None)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("attributes", help="resolve demographic + interest profiles")
    p.add_argument("--in", dest="in_path", required=True, metavar="IN")
    p.add_argument("--kind", choices=("student", "candidate"), required=True)
    p.add_argument("--predicted", default=None,
                   help="predicted JSONL from the classify step: profile only the "
                        "students it marks college, as a pipeline run does")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attributes)

    p = sub.add_parser("rank", help="rank role models for every student")
    p.add_argument("--students", required=True, help="student profiles JSONL")
    p.add_argument("--rolemodels", required=True, help="role-model profiles JSONL")
    p.add_argument("-k", type=int, default=matching.DEFAULT_K)
    p.add_argument("--fuzzy-threshold", type=float, default=matching.DEFAULT_FUZZY_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("evaluate", help="score matches against ground truth")
    p.add_argument("--matches", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--level", choices=matching.LEVELS, default=matching.LEVEL_CITY_ALL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("synth", help="generate a synthetic population")
    p.add_argument("--config", default=None, help="synth config JSON (default: built-in)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
