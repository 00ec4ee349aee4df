"""Independent reference implementations the tests check against.

Deliberately written with different algorithms than the package: plain
memoized recursion for edit distance, exhaustive enumeration for maximum
matching, a per-pair full sort over those two kernels for ranking, a
per-character range test for emoji, separate HAHA and LOL searches for
laughter, every rule's regex on every text with no literal gate for weak
labels, a field-by-field comparison per ranked pair for match accuracy,
and a per-example Python sum for the classifier's decision score, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

import re
from functools import lru_cache

from stem_match.classifier import EMOJI_RANGES, N_BINS
from stem_match.labeling import COLLEGE, NON_COLLEGE, UNLABELED, WeakLabel
from stem_match.similarity import SimilarityBreakdown


def edit_distance(a: str, b: str) -> int:
    """Textbook recursive Levenshtein with memoization."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1, go(i - 1, j - 1) + cost)

    return go(len(a), len(b))


@lru_cache(maxsize=None)
def edit_similarity(a: str, b: str) -> float:
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return (total - edit_distance(a, b)) / total


def exhaustive_matching_size(left: list[str], right: list[str], threshold: float) -> int:
    """Maximum one-to-one matching size by trying every injective assignment."""
    edges = [
        [edit_similarity(a, b) >= threshold for b in right]
        for a in left
    ]

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(left):
            return 0
        # either leave left[i] unmatched ...
        result = best(i + 1, used)
        # ... or match it to any free compatible right vertex
        for j in range(len(right)):
            if j not in used and edges[i][j]:
                result = max(result, 1 + best(i + 1, used | {j}))
        return result

    return best(0, frozenset())


def classical_jaccard(a: set[str], b: set[str]) -> float:
    return len(a & b) / len(a | b)


@lru_cache(maxsize=None)
def pair_breakdown(student, profile, threshold) -> SimilarityBreakdown:
    """One pair's similarities from this module's own kernels: exact match
    for gender and race, edit similarity of the ``_place``-normalized
    locations, exhaustive fuzzy Jaccard of the interests, and the plain mean
    of the components present, in that order."""

    def exact(a, b):
        return None if a is None or b is None else float(a == b)

    location = None
    if student.location is not None and profile.location is not None:
        location = edit_similarity(_place(student.location), _place(profile.location))
    interest = None
    if student.interests and profile.interests:
        m = exhaustive_matching_size(list(student.interests), list(profile.interests), threshold)
        interest = m / (len(student.interests) + len(profile.interests) - m)
    components = (exact(student.gender, profile.gender), exact(student.race, profile.race),
                  location, interest)
    present = [c for c in components if c is not None]
    return SimilarityBreakdown(*components, combined=sum(present) / len(present) if present else 0.0,
                               no_signal=not present)


def full_sort_rank(student_id, student, candidates, k, threshold):
    """Score every pair one at a time, sort, and cut at k.

    Ordering: signal before no-signal, then combined descending, then
    candidate id ascending.
    """
    scored = [(candidate_id, pair_breakdown(student, profile, threshold))
              for candidate_id, profile in candidates]
    scored.sort(key=lambda item: (item[1].no_signal, -item[1].combined, item[0]))
    return scored[:k]


def contains_emoji(text: str) -> bool:
    """Test every character of ``text`` against every emoji range."""
    return any(lo <= ord(ch) <= hi for ch in text for lo, hi in EMOJI_RANGES)


_HAHA = re.compile(r"\b(?:HA){2,}H?\b")
_LOL = re.compile(r"\bLO+L\b")


def contains_hahalol(text: str) -> bool:
    """Search ``text`` for a HAHA token, then separately for a LOL token."""
    return _HAHA.search(text) is not None or _LOL.search(text) is not None


def label_student(record, rules) -> WeakLabel:
    """Search every rule's regex in the bio and in each tweet, with no gate."""

    def matches(rule) -> bool:
        compiled = re.compile(rule.pattern, re.IGNORECASE)
        if compiled.search(record.bio):
            return True
        return any(compiled.search(tweet) for tweet in record.tweets)

    college_hits = tuple(r.description for r in rules if r.label == COLLEGE and matches(r))
    non_college_hits = tuple(
        r.description for r in rules if r.label == NON_COLLEGE and matches(r)
    )
    if college_hits and non_college_hits:
        return WeakLabel(UNLABELED, (), college_hits, non_college_hits)
    if college_hits:
        return WeakLabel(COLLEGE, college_hits)
    if non_college_hits:
        return WeakLabel(NON_COLLEGE, non_college_hits)
    return WeakLabel(UNLABELED)


def decision_score(model, features) -> float:
    """``w·x + b`` of one feature vector, summed term by term in Python."""
    row = [getattr(features, name) / (N_BINS - 1) for name in model.active_features]
    return float(sum(w * x for w, x in zip(model.weights, row)) + model.bias)


def _place(text: str) -> str:
    return " ".join(text.split()).lower()


def correct_match(student, candidate, level: str) -> bool:
    """A STEM role model with the student's gender, race and place, compared
    field by field; an absent field on either side is never a match."""
    if candidate is None or candidate.is_stem_role_model is not True:
        return False
    place = "city" if level.startswith("city") else "state"
    for name in ("gender", "race", place):
        mine, theirs = getattr(student, name), getattr(candidate, name)
        if mine is None or theirs is None:
            return False
        if name == place:
            mine, theirs = _place(mine), _place(theirs)
        if mine != theirs:
            return False
    return True


def evaluation(results, annotations, level: str, top10_cities, n_max: int = 5):
    """(cohort size, accuracy per n, no-signal students) of ranked results,
    counting the correct matches of every ranked pair one at a time."""
    cohort = list(results)
    if level.endswith("top10"):
        wanted = [_place(city) for city in top10_cities]
        cohort = [r for r in cohort if annotations[r.student_id].city is not None
                  and _place(annotations[r.student_id].city) in wanted]
    correct = [
        sum(correct_match(annotations[r.student_id], annotations.get(cid), level)
            for cid, _ in r.ranked)
        for r in cohort
    ]
    accuracies = tuple(
        sum(count >= n for count in correct) / len(cohort) if cohort else 0.0
        for n in range(1, n_max + 1)
    )
    no_signal = sum(all(b.no_signal for _, b in r.ranked) for r in cohort)
    return len(cohort), accuracies, no_signal
