"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is a seeded ``stem_match.synthetic`` population written to
JSONL files before timing starts.  The three workloads stress different
layers of the same pipeline:

* ``pool-heavy``: few students, a large candidate pool, the default
  collision-free interest vocabulary.  ``rank`` does most of the work.
* ``cohort-heavy``: many students with their tweets, a pool of a few
  hundred candidates.  Labeling, classification, reading records and
  writing pages do most of the work; ``rank`` does little.
* ``fuzzy-vocab``: the shape of ``pool-heavy``, but every tag comes with
  near-duplicate variants that fuzzy-match it at the default threshold and
  people have up to six interests, so students' fuzzy-hit masks overlap
  and the general (Kuhn) matching path runs.

``BENCHMARK.json`` lists only ``pool-heavy`` and ``cohort-heavy``: with two
workloads every benchmark run can measure for about a minute, which keeps
run-to-run spreads within their bounds on a noisy shared host.
``fuzzy-vocab`` stays runnable by name, e.g. to check that a change to the
matching path does not slow it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from stem_match import attributes, rolemodels
from stem_match.records import load_candidates, load_students
from stem_match.similarity import DEFAULT_FUZZY_THRESHOLD, lev_similarity
from stem_match.synthetic import DEFAULT_INTEREST_VOCABULARY, SynthConfig, generate_synthetic


def fuzzy_vocabulary(tags: tuple[str, ...] = DEFAULT_INTEREST_VOCABULARY) -> tuple[str, ...]:
    """Each tag plus two near-duplicates (plural and clipped) of it.

    Every variant is at least ``DEFAULT_FUZZY_THRESHOLD`` similar to its
    tag, so a person holding a tag and one of its variants has fuzzy-hit
    masks that overlap.
    """
    words = []
    for tag in tags:
        for word in (tag, tag + "s", tag[:-1]):
            if lev_similarity(tag, word) < DEFAULT_FUZZY_THRESHOLD:
                raise ValueError(f"variant {word!r} does not fuzzy-match {tag!r}")
            words.append(word)
    if len(set(words)) != len(words):
        raise ValueError("fuzzy vocabulary has duplicate words")
    return tuple(words)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: population shape plus its validity guard."""

    name: str
    why: str
    n_students: int
    n_candidates: int
    planted_fraction: float
    interest_vocabulary: tuple[str, ...] = DEFAULT_INTEREST_VOCABULARY
    max_interests: int = 3
    k: int = 5
    # Validity guards: the property the workload exists to exercise.
    rank_majority: bool = False
    needs_mask_overlap: bool = False

    def synth_config(self, seed: int, scale: float = 1.0) -> SynthConfig:
        n_students = max(40, round(self.n_students * scale))
        n_candidates = max(60, round(self.n_candidates * scale))
        return SynthConfig(
            seed=seed,
            n_students=n_students,
            n_candidates=n_candidates,
            interest_vocabulary=self.interest_vocabulary,
            max_interests=self.max_interests,
            planted_fraction=min(self.planted_fraction, n_candidates / n_students / 2),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pool-heavy",
            why="few students, large candidate pool, collision-free tags: rank dominates",
            n_students=2000,
            n_candidates=16000,
            planted_fraction=0.2,
            rank_majority=True,
        ),
        Workload(
            name="cohort-heavy",
            why="many students, a few hundred candidates: labeling, classifier, record IO and pages dominate",
            n_students=8000,
            n_candidates=300,
            planted_fraction=0.02,
        ),
        Workload(
            name="fuzzy-vocab",
            why="pool-heavy shape with fuzzy-colliding tags and up to 6 interests: overlapping masks run Kuhn matching",
            n_students=1000,
            n_candidates=8000,
            planted_fraction=0.2,
            interest_vocabulary=fuzzy_vocabulary(),
            max_interests=6,
            needs_mask_overlap=True,
        ),
    )
}


def make_inputs(workload: Workload, seed: int, directory: Path, scale: float = 1.0) -> dict[str, Path]:
    """Write students, candidates and ground truth for one seed."""
    return generate_synthetic(workload.synth_config(seed, scale), directory)


def describe_inputs(inputs: dict[str, Path], threshold: float = DEFAULT_FUZZY_THRESHOLD) -> dict:
    """Input-side descriptors, computed before timing starts.

    ``mask_overlap_share`` is the share of students with interests whose
    fuzzy-hit masks over the role models' interest vocabulary overlap, i.e.
    at least one role-model word fuzzy-matches two of the student's words.
    """
    students = load_students(inputs["students"]).records
    candidates = load_candidates(inputs["candidates"]).records
    kept = rolemodels.filter_role_models(
        candidates, rolemodels.default_taxonomy(), rolemodels.default_majors()
    ).role_models
    vocab = sorted({word for c in kept for word in attributes.build_profile(c).interests})

    masks: dict[str, frozenset[str]] = {}

    def mask_of(word: str) -> frozenset[str]:
        if word not in masks:
            masks[word] = frozenset(v for v in vocab if lev_similarity(word, v) >= threshold)
        return masks[word]

    with_interests = overlapping = 0
    student_words: set[str] = set()
    for record in students:
        interests = sorted(attributes.build_profile(record).interests)
        student_words.update(interests)
        if not interests:
            continue
        with_interests += 1
        seen: set[str] = set()
        for word in interests:
            hits = mask_of(word)
            if seen & hits:
                overlapping += 1
                break
            seen |= hits
    return {
        "students": len(students),
        "candidates": len(candidates),
        "rolemodels": len(kept),
        "interest_words": len(student_words | set(vocab)),
        "mask_overlap_share": overlapping / with_interests if with_interests else 0.0,
        "mask_overlap_base": with_interests,
    }
