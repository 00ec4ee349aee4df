"""Ranking role models per student and scoring match accuracy.

Every candidate is scored against the student with the combined attribute
similarity; the top k (default 5) come back as a ``MatchResult``.  Ties
break by candidate id ascending, and candidates with no comparable
attributes at all (no-signal) sort below every scored candidate.

Accuracy follows the counting rule: for n = 1..5, the fraction of students
whose top-5 contains at least n correct matches, where a correct match is
a STEM role model sharing the student's annotated gender, race, and city
(or state, at the state levels).  Evaluation levels: city-all, state-all,
and the same two restricted to students from a configurable top-10 city
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .records import AttributeProfile, read_jsonl, write_jsonl
from .similarity import (
    DEFAULT_FUZZY_THRESHOLD,
    SimilarityBreakdown,
    lev_similarity,
    max_matching_size,
    normalize_location,
)

DEFAULT_K = 5

# Elements of one block's ``B × n`` score arrays: ``match_corpus`` scores
# ``B = max(1, _BLOCK_ELEMENTS // n)`` students per ``CandidateIndex.score``
# call, which keeps each float64 array of a block within 128 kB unless one
# student's row of ``n`` is larger on its own.
_BLOCK_ELEMENTS = 1 << 14

LEVEL_CITY_ALL = "city-all"
LEVEL_STATE_ALL = "state-all"
LEVEL_CITY_TOP10 = "city-top10"
LEVEL_STATE_TOP10 = "state-top10"
LEVELS = (LEVEL_CITY_ALL, LEVEL_STATE_ALL, LEVEL_CITY_TOP10, LEVEL_STATE_TOP10)

# Default city list for the top-10 evaluation levels.
DEFAULT_TOP10_CITIES = (
    "San Francisco",
    "New York City",
    "Atlanta",
    "Los Angeles",
    "Dallas",
    "Chicago",
    "Washington D.C.",
    "Boston",
    "Seattle",
    "Houston",
)


class MatchError(ValueError):
    """Raised for unusable ranking or evaluation inputs."""


@dataclass(frozen=True)
class MatchResult:
    """Top-k candidates for one student, best first."""

    student_id: str
    ranked: tuple[tuple[str, SimilarityBreakdown], ...]

    def __post_init__(self) -> None:
        ids = [cid for cid, _ in self.ranked]
        if len(ids) != len(set(ids)):
            raise MatchError(f"duplicate candidate ids in result for {self.student_id!r}")

    def all_no_signal(self) -> bool:
        return all(breakdown.no_signal for _, breakdown in self.ranked)


class CandidateIndex:
    """Candidate profiles preprocessed for scoring many students.

    Builds the arrays and caches that make corpus-scale ranking cheap:
    categorical codes, normalized locations, and bitmasks over the
    candidates' interest vocabulary.  A candidate's mask holds its own words
    and a student interest's mask the words it fuzzy-matches, so a pair's
    interest matching is Kuhn's algorithm on the student masks ANDed with
    the candidate's, with vocabulary bits as its right-hand side.  Scoring
    through the index is arithmetic-identical to calling
    ``similarity.combined_score`` pair by pair; the ranking oracle test in
    the suite holds it to that.

    The pool is held in id order, so a candidate's column is its id rank,
    the last sort key of a ranking; ``present`` (``4 × n``) flags which
    candidates have a gender, race, location and interests.

    ``score`` takes a block of students and returns ``B × n`` arrays.  It
    memoizes the last interest set's similarities as one ``(key, sims)``
    entry that outlives the call, so scoring students grouped by interest
    set (as ``match_corpus`` does) computes each set's component once, even
    for a set split across two blocks.  Arrays shared across calls are
    read-only.
    """

    def __init__(self, candidates: Sequence[tuple[str, AttributeProfile]],
                 threshold: float = DEFAULT_FUZZY_THRESHOLD):
        if not 0.0 <= threshold <= 1.0:
            raise MatchError(f"fuzzy threshold {threshold} outside [0, 1]")
        candidates = sorted(candidates, key=lambda item: item[0])
        ids = [cid for cid, _ in candidates]
        if len(ids) != len(set(ids)):
            raise MatchError("duplicate candidate ids")
        self.threshold = threshold
        self.ids = ids
        profiles = [profile for _, profile in candidates]

        self._gender_codes, self._gender_vocab = _encode([p.gender for p in profiles])
        self._race_codes, self._race_vocab = _encode([p.race for p in profiles])

        locations = [
            normalize_location(p.location) if p.location is not None else None
            for p in profiles
        ]
        self._loc_codes, self._loc_vocab = _encode(locations)
        self._loc_sim_cache: dict[str, np.ndarray] = {}

        # Interest vocabulary over candidate interest strings; each
        # candidate keeps a bitmask of its words in it and their count.
        vocab: dict[str, int] = {}
        self._cand_masks = [0] * len(profiles)
        for i, profile in enumerate(profiles):
            for interest in sorted(profile.interests):
                self._cand_masks[i] |= 1 << vocab.setdefault(interest, len(vocab))
        self._vocab_words = list(vocab)
        self._cand_sizes = [len(p.interests) for p in profiles]
        self._student_mask_cache: dict[str, int] = {}
        self._interest_memo: tuple = (None, None)

        self.present = _read_only(np.stack([self._gender_codes >= 0, self._race_codes >= 0,
                                            self._loc_codes >= 0, np.array(self._cand_sizes) > 0]))
        # Row ``f`` counts, per candidate, the components present on both
        # sides for a student whose presence flags have the bits of ``f``.
        bits = (np.arange(16, dtype=np.uint8)[:, None] >> np.arange(4, dtype=np.uint8)) & 1
        self._counts = bits @ self.present

    # perfbench/tracing.py counts pairs scored as len(index) on each traced
    # CandidateIndex.score call (COUNTERS["matching.CandidateIndex.score"]).
    def __len__(self) -> int:
        return len(self.ids)

    def _interest_mask(self, interest: str) -> int:
        """Bitmask of candidate-vocabulary words fuzzy-equal to ``interest``."""
        mask = self._student_mask_cache.get(interest)
        if mask is None:
            mask = 0
            for index, word in enumerate(self._vocab_words):
                if lev_similarity(interest, word) >= self.threshold:
                    mask |= 1 << index
            self._student_mask_cache[interest] = mask
        return mask

    def _location_sims(self, student_location: str) -> np.ndarray:
        """Similarity of one student location to every candidate location code."""
        sims = self._loc_sim_cache.get(student_location)
        if sims is None:
            sims = np.array(
                [lev_similarity(student_location, loc) for loc in self._loc_vocab]
            )
            self._loc_sim_cache[student_location] = sims
        return sims

    def score(self, students: Sequence[AttributeProfile]
              ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
        """Combined scores and no-signal flags for a block of students vs all candidates.

        Returns (combined, no_signal, sims, flags): ``B × n`` arrays, one row
        per student and one column per candidate; the gender, race, location
        and interest similarities as four such arrays, 0.0 where absent; and
        the students' ``B × 4`` presence flags, the other side of ``present``.
        """
        flags = np.array([(s.gender is not None, s.race is not None, s.location is not None,
                           bool(s.interests)) for s in students], dtype=bool)
        sims = []
        for values, codes, vocab in (
            ([s.gender for s in students], self._gender_codes, self._gender_vocab),
            ([s.race for s in students], self._race_codes, self._race_vocab),
        ):
            # -2 never equals an encoded value or the -1 of an absent one
            wanted = np.array([-2 if v is None else vocab.get(v, -2) for v in values], dtype=int)
            sims.append((wanted[:, None] == codes).astype(float))

        # Rows are the block's distinct normalized locations, columns the
        # candidate location codes, each plus a last one of zeros for -1.
        rows: dict[str, int] = {}
        located = np.array([
            -1 if s.location is None
            else rows.setdefault(normalize_location(s.location), len(rows))
            for s in students
        ], dtype=int)
        table = np.zeros((len(rows) + 1, len(self._loc_vocab) + 1))
        for row, location in enumerate(rows):
            table[row, :-1] = self._location_sims(location)
        sims.append(table[located[:, None], self._loc_codes])

        interest = []
        for student in students:
            if self._interest_memo[0] != student.interests:
                self._interest_memo = (student.interests,
                                       self._interest_component(student.interests))
            interest.append(self._interest_memo[1])
        sims.append(np.stack(interest))

        total = sims[0] + sims[1] + sims[2] + sims[3]
        count = self._counts[flags @ (1, 2, 4, 8)]
        no_signal = count == 0
        combined = np.divide(total, count, out=np.zeros(total.shape), where=~no_signal)
        return combined, no_signal, sims, flags

    def _interest_component(self, interests: frozenset[str]) -> np.ndarray:
        """Read-only interest similarities for one interest set, 0.0 where absent."""
        n = len(self.ids)
        sims = np.zeros(n)
        if not interests:
            return _read_only(sims)
        left_masks = [self._interest_mask(s) for s in sorted(interests)]
        union = 0
        for mask in left_masks:
            union |= mask
        p = len(left_masks)
        cand_masks = self._cand_masks
        for i in range(n):
            q = self._cand_sizes[i]
            if q == 0:
                continue
            m = 0
            cand_mask = cand_masks[i]
            if union & cand_mask:
                m = max_matching_size([mask & cand_mask for mask in left_masks])
            sims[i] = m / (p + q - m)
        return _read_only(sims)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _encode(values: Sequence[str | None]) -> tuple[np.ndarray, dict[str, int]]:
    """Integer codes for optional strings; None becomes -1."""
    vocab: dict[str, int] = {}
    codes = np.empty(len(values), dtype=int)
    for i, value in enumerate(values):
        if value is None:
            codes[i] = -1
        else:
            codes[i] = vocab.setdefault(value, len(vocab))
    return codes, vocab


def _select_top(index: CandidateIndex, block: Sequence[tuple[str, AttributeProfile]],
                k: int) -> list[MatchResult]:
    """Top-k results for a block of students, exactly as a full sort orders them.

    A candidate's sort key is (no-signal, -combined, id rank); the first two
    fold into one float, ``1.0`` for no-signal and ``-combined`` otherwise.
    Per student, every candidate whose key is below the k-th smallest key
    wins, and those tied with it win in id order until k have won.  Columns
    are in id order, so a stable sort of the winners' keys orders them by
    (key, id rank).  Breakdowns are built for the winners only.
    """
    combined, no_signal, sims, flags = index.score([student for _, student in block])
    key = np.where(no_signal, 1.0, -combined)
    k = min(k, key.shape[1])
    kth = np.partition(key, k - 1, axis=1)[:, k - 1:k]
    below = key < kth
    tied = key == kth
    won = below | (tied & (np.cumsum(tied, axis=1) <= k - below.sum(axis=1, keepdims=True)))
    top = np.nonzero(won)[1].reshape(len(block), k)
    top = np.take_along_axis(
        top, np.argsort(np.take_along_axis(key, top, 1), axis=1, kind="stable"), 1)

    def pick(array: np.ndarray) -> np.ndarray:
        return np.take_along_axis(array, top, 1)

    parts = [np.where(flags[:, c:c + 1] & index.present[c][top], pick(sims[c]), None)
             for c in range(4)]
    # One row of breakdown fields per winner: four components (None where
    # absent), combined and no_signal, as Python floats and bools.
    breakdowns = np.stack(parts + [pick(combined), pick(no_signal)], axis=2).tolist()
    return [
        MatchResult(student_id, tuple((index.ids[i], SimilarityBreakdown(*fields))
                                      for i, fields in zip(winners, student_fields)))
        for (student_id, _), winners, student_fields in zip(block, top.tolist(), breakdowns)
    ]


def match_corpus(students: Sequence[tuple[str, AttributeProfile]],
                 candidates: Sequence[tuple[str, AttributeProfile]],
                 k: int = DEFAULT_K,
                 threshold: float = DEFAULT_FUZZY_THRESHOLD) -> list[MatchResult]:
    """Rank candidates for every student; one result per student, in order.

    Students are scored grouped by interest set, so that the index computes
    each distinct set's interest component once, in blocks of
    ``max(1, _BLOCK_ELEMENTS // n)`` students for ``n`` candidates; every
    result goes back to its student's input position.
    """
    if not students:
        return []
    if not candidates:
        raise MatchError("candidate list must be nonempty")
    if k < 1:
        raise MatchError(f"k must be >= 1, got {k}")
    index = CandidateIndex(candidates, threshold)
    order = sorted(range(len(students)), key=lambda i: tuple(sorted(students[i][1].interests)))
    size = max(1, _BLOCK_ELEMENTS // len(index))
    results: list[MatchResult | None] = [None] * len(students)
    for start in range(0, len(order), size):
        block = order[start:start + size]
        for i, result in zip(block, _select_top(index, [students[i] for i in block], k)):
            results[i] = result
    return results


# ---------------------------------------------------------------------------
# Ground truth and accuracy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruthAnnotation:
    """Manually curated demographic truth for one subject.

    ``is_stem_role_model`` applies to candidates; ``planted_candidate_id``
    is recorded by the synthetic generator for planted students.
    """

    subject_id: str
    gender: str | None = None
    race: str | None = None
    city: str | None = None
    state: str | None = None
    is_stem_role_model: bool | None = None
    planted_candidate_id: str | None = None

    def __post_init__(self) -> None:
        if not self.subject_id:
            raise MatchError("annotation subject_id must be nonempty")
        for name in ("city", "state"):
            value = getattr(self, name)
            if value is not None and not value.strip():
                raise MatchError(f"annotated {name} must be nonempty when present")

    @classmethod
    def from_dict(cls, data: Mapping, shared: dict | None = None) -> "GroundTruthAnnotation":
        """Build an annotation from a parsed JSON object.

        ``shared`` is the sharing table of one load: an annotated gender,
        race, city or state equal to one already in it is reused from it.
        """
        subject_id = data.get("subject_id")
        if not isinstance(subject_id, str):
            raise MatchError("annotation row must carry a string subject_id")
        flag = data.get("is_stem_role_model")
        if flag is not None and not isinstance(flag, bool):
            raise MatchError(f"is_stem_role_model must be boolean, got {flag!r}")
        fields = {name: data.get(name)
                  for name in ("gender", "race", "city", "state", "planted_candidate_id")}
        for name, value in fields.items():
            if value is not None and not isinstance(value, str):
                raise MatchError(f"annotated {name} must be a string or null, got {value!r}")
        if shared is not None:
            for name in ("gender", "race", "city", "state"):
                fields[name] = shared.setdefault(fields[name], fields[name])
        return cls(subject_id=subject_id, is_stem_role_model=flag, **fields)


def load_annotations(path: str | Path) -> dict[str, GroundTruthAnnotation]:
    shared: dict = {}
    annotations = read_jsonl(path, lambda row: GroundTruthAnnotation.from_dict(row, shared),
                             key=lambda annotation: annotation.subject_id)
    return {annotation.subject_id: annotation for annotation in annotations}


def _check_level(level: str) -> None:
    if level not in LEVELS:
        raise MatchError(f"unknown evaluation level {level!r}; expected one of {LEVELS}")


def _place_field(level: str) -> str:
    return "city" if level.startswith("city") else "state"


def _match_key(annotation: GroundTruthAnnotation, place_field: str
               ) -> tuple[str, str, str] | None:
    """(gender, race, normalized place), or None when any of them is absent."""
    place = getattr(annotation, place_field)
    if annotation.gender is None or annotation.race is None or place is None:
        return None
    return annotation.gender, annotation.race, normalize_location(place)


@dataclass(frozen=True)
class AccuracyReport:
    """Per-n matching accuracy for one evaluation level.

    ``accuracies[i]`` is the fraction of the cohort with at least i+1
    correct matches in their ranked list, for each i below ``evaluate``'s
    ``n_max``; the sequence is nonincreasing by construction.  Students
    whose entire ranked list was no-signal stay in the cohort (they count
    as zero correct) but are also reported separately.
    """

    level: str
    cohort_size: int
    accuracies: tuple[float, ...]
    no_signal_students: int

    def accuracy_at(self, n: int) -> float:
        return self.accuracies[n - 1]

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "cohort_size": self.cohort_size,
            "no_signal_students": self.no_signal_students,
            "accuracy": {str(n): value for n, value in enumerate(self.accuracies, start=1)},
        }


def evaluate(results: Sequence[MatchResult], annotations: Mapping[str, GroundTruthAnnotation],
             level: str, top10_cities: Sequence[str] = DEFAULT_TOP10_CITIES,
             n_max: int = DEFAULT_K) -> AccuracyReport:
    """Score ranked results against ground truth at one evaluation level.

    A ranked candidate is a correct match when it is annotated as a STEM
    role model with the student's gender, race and normalized place (city,
    or state at the state levels).  Every student must have an annotation
    row; an absent field on either side, or a candidate without an
    annotation row, is not a correct match.  The top-10 levels restrict the
    cohort to students whose annotated city is on the ``top10_cities`` list.
    """
    _check_level(level)
    missing = sorted({r.student_id for r in results} - set(annotations))
    if missing:
        raise MatchError(f"students without annotation rows: {', '.join(missing)}")

    if level.endswith("top10"):
        wanted = {normalize_location(city) for city in top10_cities}
        cohort = [
            r for r in results
            if annotations[r.student_id].city is not None
            and normalize_location(annotations[r.student_id].city) in wanted
        ]
    else:
        cohort = list(results)

    # A ranked candidate's match key, or None when it is not an annotated
    # STEM role model; filled on first sight of each candidate.
    place_field = _place_field(level)
    candidate_keys: dict[str, tuple[str, str, str] | None] = {}
    at_least = [0] * n_max
    no_signal_students = 0
    for result in cohort:
        if result.all_no_signal():
            no_signal_students += 1
        key = _match_key(annotations[result.student_id], place_field)
        correct = 0
        if key is not None:
            for candidate_id, _ in result.ranked:
                if candidate_id not in candidate_keys:
                    candidate = annotations.get(candidate_id)
                    candidate_keys[candidate_id] = (
                        _match_key(candidate, place_field)
                        if candidate is not None and candidate.is_stem_role_model else None)
                correct += candidate_keys[candidate_id] == key
        for n in range(1, min(correct, n_max) + 1):
            at_least[n - 1] += 1

    size = len(cohort)
    accuracies = tuple(count / size if size else 0.0 for count in at_least)
    return AccuracyReport(level, size, accuracies, no_signal_students)


# ---------------------------------------------------------------------------
# Matches files
# ---------------------------------------------------------------------------


def match_rows(results: Iterable[MatchResult]) -> Iterator[dict]:
    """The matches-file rows, built one at a time as they are consumed."""
    for result in results:
        yield {
            "student_id": result.student_id,
            "ranked": [
                {"candidate_id": candidate_id, **breakdown.to_dict()}
                for candidate_id, breakdown in result.ranked
            ],
        }


def write_matches(path: str | Path, results: Iterable[MatchResult]) -> None:
    write_jsonl(path, match_rows(results))


def _match_result(row: Mapping) -> MatchResult:
    student_id = row.get("student_id")
    ranked_rows = row.get("ranked")
    if not isinstance(student_id, str) or not isinstance(ranked_rows, list):
        raise MatchError("match row must carry a string student_id and a ranked list")
    ranked = []
    for entry in ranked_rows:
        if not isinstance(entry, dict) or not isinstance(entry.get("candidate_id"), str):
            raise MatchError("ranked entry must be an object with a string candidate_id")
        ranked.append((entry["candidate_id"], SimilarityBreakdown.from_dict(entry)))
    return MatchResult(student_id, tuple(ranked))


def load_matches(path: str | Path) -> list[MatchResult]:
    return read_jsonl(path, _match_result, key=lambda result: result.student_id)
