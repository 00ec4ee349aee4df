"""Span tracing of the stem-match pipeline from outside the package.

``Tracer.install`` wraps every public function of each layer module
(``records``, ``labeling``, ``classifier``, ``rolemodels``, ``attributes``,
``matching``, ``pages``) and rebinds the wrapper in every ``stem_match.*``
namespace that holds the original, because modules import each other's
functions by name.  The stage boundaries come from the stage callables that
``run_pipeline`` dispatches to.  Spans are kept in memory and written out
after the run; nothing inside the package changes.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from stem_match.pipeline import STAGES

LAYERS = ("records", "labeling", "classifier", "rolemodels", "attributes", "matching", "pages")

# Per-tweet predicates run several hundred thousand times per run; a span
# each would cost more than the feature extraction they belong to.
UNTRACED = frozenset({
    "classifier.contains_emoji",
    "classifier.contains_hashtag",
    "classifier.contains_hahalol",
    "classifier.is_retweet",
})

# Methods whose calls the per-layer metrics need one by one.
METHODS = (("matching", "CandidateIndex", "__init__"), ("matching", "CandidateIndex", "score"))



def _loaded_rows(result) -> int:
    return len(result.records) + len(result.errors)


# Counters read off a traced call's arguments and result, outside its span:
# name -> f(args, kwargs, result) -> {counter: increment}.
COUNTERS = {
    "records.load_students": lambda a, kw, r: {"rows_parsed": _loaded_rows(r), "students_file_loads": 1},
    "records.load_candidates": lambda a, kw, r: {"rows_parsed": _loaded_rows(r)},
    "records.read_jsonl": lambda a, kw, r: {"rows_parsed": len(r)},
    "records.write_jsonl": lambda a, kw, r: {
        "bytes_written": os.path.getsize(a[0] if a else kw["path"])},
    "labeling.label_corpus": lambda a, kw, r: {"students_labeled": len(r.labels)},
    "rolemodels.filter_role_models": lambda a, kw, r: {
        "kept": len(r.role_models), "candidates": len(r.decisions)},
    "matching.CandidateIndex.score": lambda a, kw, r: {"pairs_scored": len(a[0])},
    "pages.write_pages": lambda a, kw, r: {"pages_written": len(r)},
}


class Tracer:
    """Collects the spans of one pipeline run.

    Span ``i`` is ``names[i]``, ``starts[i]``, ``ends[i]`` and ``parents[i]``
    (-1 for the root).  Flat arrays rather than one object per span keep the
    garbage collector from walking a hundred thousand extra containers.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[index] = perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, increment in counter(args, kwargs, result).items():
                self.counts[key] += increment
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap the layer functions, the listed methods and the stage callables."""
        import stem_match  # noqa: F401  (imports every layer module)
        from stem_match import pipeline

        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == "stem_match" or name.startswith("stem_match.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"stem_match.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(name, fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"stem_match.{layer}"], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for stage, fn in list(pipeline._STAGE_FUNCS.items()):
            pipeline._STAGE_FUNCS[stage] = self.wrap(f"pipeline.stage.{stage}", fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: run id, span id, name, start, end, parent."""
        origin = self.starts[0] if self.starts else 0.0
        spans = zip(self.names, self.starts, self.ends, self.parents)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(spans):
                handle.write(
                    f'{{"run": "{self.run_id}", "id": {index}, "name": "{name}", '
                    f'"start": {start - origin:.9f}, "end": {end - origin:.9f}, '
                    f'"parent": {"null" if parent < 0 else parent}}}\n'
                )

    def write_self_time_table(self, path: Path) -> None:
        """Self time per layer, then per traced function, largest first."""
        own = self.self_times()
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer: dict[str, float] = defaultdict(float)
        for name, start, end, self_s in zip(self.names, self.starts, self.ends, own):
            row = by_name[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
            by_layer[name.split(".")[0]] += self_s
        total = sum(by_layer.values()) or 1.0
        lines = [f"# run {self.run_id}", "layer\tself_s\tshare"]
        for layer, self_s in sorted(by_layer.items(), key=lambda item: -item[1]):
            lines.append(f"{layer}\t{self_s:.6f}\t{self_s / total:.4f}")
        lines += ["", "function\tcalls\ttotal_s\tself_s"]
        for name, (calls, total_s, self_s) in sorted(by_name.items(), key=lambda item: -item[1][2]):
            lines.append(f"{name}\t{calls}\t{total_s:.6f}\t{self_s:.6f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layer_metrics(self, pages_bytes: int) -> dict[str, float]:
        """The per-layer metrics of this run, by name (units in ``UNITS``)."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_total: dict[str, float] = defaultdict(float)
        score_us = []
        for name, start, end, self_s in zip(self.names, self.starts, self.ends, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            self_total[name] += self_s
            if name == "matching.CandidateIndex.score":
                score_us.append((end - start) * 1e6)
        score_us.sort()
        c = self.counts
        metrics = {f"stage.{stage}_s": total[f"pipeline.stage.{stage}"] for stage in STAGES}
        label_s = total["labeling.label_corpus"]
        score_s = total["matching.CandidateIndex.score"]
        pages_s = total["pages.write_pages"]
        metrics.update({
            "records.parse_s": total["records.load_students"] + total["records.load_candidates"]
            + total["records.read_jsonl"],
            "records.rows_parsed": c["rows_parsed"],
            "records.students_file_loads": c["students_file_loads"],
            "records.write_s": total["records.write_jsonl"],
            "records.bytes_written": c["bytes_written"],
            "labeling.label_s": label_s,
            "labeling.us_per_student": label_s * 1e6 / max(c["students_labeled"], 1),
            "classifier.features_s": total["classifier.extract_features"],
            "classifier.feature_calls": calls["classifier.extract_features"],
            "classifier.train_s": self_total["classifier.train"],
            "classifier.cv_s": total["classifier.cross_validate"],
            "classifier.train_calls": calls["classifier.train"],
            "classifier.infer_s": total["classifier.infer"],
            "rolemodels.filter_s": total["rolemodels.filter_role_models"],
            "rolemodels.kept_ratio": c["kept"] / max(c["candidates"], 1),
            "attributes.build_s": total["attributes.build_profile"],
            "attributes.profiles_built": calls["attributes.build_profile"],
            "attributes.io_s": total["attributes.write_profiles"] + total["attributes.load_profiles"],
            "matching.index_build_s": total["matching.CandidateIndex.__init__"],
            "matching.score_s": score_s,
            "matching.score_us_p50": _percentile(score_us, 0.50),
            "matching.score_us_p99": _percentile(score_us, 0.99),
            # Self time of match_corpus: its own time minus index build and scoring.
            "matching.select_s": self_total["matching.match_corpus"],
            "matching.pairs_scored": c["pairs_scored"],
            "matching.pairs_per_s": c["pairs_scored"] / score_s if score_s else 0.0,
            "matching.evaluate_s": total["matching.evaluate"],
            "matching.matches_io_s": total["matching.write_matches"] + total["matching.load_matches"],
            "pages.write_s": pages_s,
            "pages.pages_written": c["pages_written"],
            "pages.us_per_page": pages_s * 1e6 / max(c["pages_written"], 1),
            "pages.bytes_written": pages_bytes,
        })
        return metrics


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


UNITS = {
    **{f"stage.{stage}_s": "s" for stage in STAGES},
    "records.parse_s": "s",
    "records.rows_parsed": "count",
    "records.students_file_loads": "count",
    "records.write_s": "s",
    "records.bytes_written": "B",
    "labeling.label_s": "s",
    "labeling.us_per_student": "us",
    "classifier.features_s": "s",
    "classifier.feature_calls": "count",
    "classifier.train_s": "s",
    "classifier.cv_s": "s",
    "classifier.train_calls": "count",
    "classifier.infer_s": "s",
    "rolemodels.filter_s": "s",
    "rolemodels.kept_ratio": "ratio",
    "attributes.build_s": "s",
    "attributes.profiles_built": "count",
    "attributes.io_s": "s",
    "matching.index_build_s": "s",
    "matching.score_s": "s",
    "matching.score_us_p50": "us",
    "matching.score_us_p99": "us",
    "matching.select_s": "s",
    "matching.pairs_scored": "count",
    "matching.pairs_per_s": "1/s",
    "matching.evaluate_s": "s",
    "matching.matches_io_s": "s",
    "pages.write_s": "s",
    "pages.pages_written": "count",
    "pages.us_per_page": "us",
    "pages.bytes_written": "B",
    "trace.overhead_s": "s",
}
