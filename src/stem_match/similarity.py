"""Pairwise similarity kernels between student and candidate attributes.

Four kernels feed the match score: Levenshtein-based string similarity for
locations, exact match for gender and race, a fuzzy-overlap Jaccard
coefficient for interest sets, and an arithmetic mean over whichever
components are present.  Absent attributes are excluded from the mean, not
scored as zero; a pair with no comparable attributes at all gets a combined
score of 0 and a no-signal flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .records import _WS_RUN, AttributeProfile, RecordError

DEFAULT_FUZZY_THRESHOLD = 0.8


def levenshtein(s1: str, s2: str) -> int:
    """Minimum number of single-character edits turning ``s1`` into ``s2``.

    Characters are Unicode scalar values, so emoji and accented letters
    count as single characters rather than as their byte encodings.
    """
    if s1 == s2:
        return 0
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    if len(s2) > len(s1):
        s1, s2 = s2, s1
    previous = list(range(len(s2) + 1))
    for i, c1 in enumerate(s1, start=1):
        current = [i]
        append = current.append
        for j, c2 in enumerate(s2, start=1):
            if c1 == c2:
                append(previous[j - 1])
            else:
                append(1 + min(previous[j], current[j - 1], previous[j - 1]))
        previous = current
    return previous[-1]


def lev_similarity(s1: str, s2: str) -> float:
    """Length-normalized edit similarity in [0, 1].

    Defined as (len(s1) + len(s2) - levenshtein(s1, s2)) / (len(s1) + len(s2));
    two empty strings compare as 1.0 by convention (the ratio is 0/0).
    """
    total = len(s1) + len(s2)
    if total == 0:
        return 1.0
    return (total - levenshtein(s1, s2)) / total


def categorical_similarity(a: str | None, b: str | None) -> float | None:
    """1.0 on exact equality, 0.0 on mismatch, absent if either side is."""
    if a is None or b is None:
        return None
    return 1.0 if a == b else 0.0


def normalize_location(text: str) -> str:
    """Lowercase, collapse whitespace runs, and trim a location string."""
    return _WS_RUN.sub(" ", text.strip()).lower()


def location_similarity(l1: str | None, l2: str | None) -> float | None:
    """Edit similarity between normalized location strings.

    Purely lexical: "washington d.c." and "washington state" come out
    highly similar even though they are different places.  Absent if
    either location is absent.
    """
    if l1 is None or l2 is None:
        return None
    return lev_similarity(normalize_location(l1), normalize_location(l2))


def max_matching_size(adjacency: Sequence[int]) -> int:
    """Size of a maximum bipartite matching.

    ``adjacency[i]`` is a bitmask over the right-side vertices reachable from
    left vertex ``i``: positions in the other interest list for
    ``fuzzy_overlap``, bits of the candidate interest vocabulary for the
    ranking index.  Kuhn's augmenting-path algorithm; ``match_right`` is keyed
    by bit position, so it holds only the bits matched, however high.
    """
    match_right: dict[int, int] = {}
    size = 0
    for left in range(len(adjacency)):
        if adjacency[left] and _augment(adjacency, match_right, left, 0) < 0:
            size += 1
    return size


def _augment(adjacency: Sequence[int], match_right: dict[int, int], left: int,
             visited: int) -> int:
    """Look for an augmenting path from ``left``, trying right positions in
    ascending bit order and skipping those in the ``visited`` mask.

    On success it flips the path into ``match_right`` and returns -1;
    otherwise it returns ``visited`` grown by every position it tried.  It is
    a module-level function rather than a closure inside
    ``max_matching_size``, because a recursive closure refers to itself
    through its own cell: every call would leave a reference cycle that only
    the cyclic garbage collector frees, and ranking calls this hundreds of
    thousands of times a run.
    """
    free = adjacency[left] & ~visited
    while free:
        bit = free & -free
        visited |= bit
        free ^= bit
        pos = bit.bit_length() - 1
        holder = match_right.get(pos)
        if holder is None:
            match_right[pos] = left
            return -1
        visited = _augment(adjacency, match_right, holder, visited)
        if visited < 0:
            match_right[pos] = left
            return -1
        free &= ~visited
    return visited


def fuzzy_overlap(interests1: Iterable[str], interests2: Iterable[str],
                  threshold: float = DEFAULT_FUZZY_THRESHOLD) -> int:
    """Count of interests matched one-to-one across the two sets.

    An interest pair is matchable when its lev_similarity reaches the
    threshold; the count is the size of a maximum bipartite matching over
    those pairs, so no interest is counted twice and the result does not
    depend on element order.
    """
    _check_threshold(threshold)
    left = list(interests1)
    right = list(interests2)
    adjacency = []
    for a in left:
        mask = 0
        for pos, b in enumerate(right):
            if lev_similarity(a, b) >= threshold:
                mask |= 1 << pos
        adjacency.append(mask)
    return max_matching_size(adjacency)


def interest_similarity(interests1: Iterable[str], interests2: Iterable[str],
                        threshold: float = DEFAULT_FUZZY_THRESHOLD) -> float | None:
    """Jaccard coefficient under fuzzy overlap: m / (|I1| + |I2| - m).

    Absent when either interest set is empty — no interests is missing
    information, not evidence of dissimilarity.
    """
    left = list(interests1)
    right = list(interests2)
    if not left or not right:
        _check_threshold(threshold)
        return None
    m = fuzzy_overlap(left, right, threshold)
    return m / (len(left) + len(right) - m)


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"fuzzy threshold {threshold} outside [0, 1]")


@dataclass(frozen=True)
class SimilarityBreakdown:
    """Per-attribute similarities plus their mean for one pair.

    ``combined`` is the arithmetic mean of the components that are
    present; when none are, it is 0.0 and ``no_signal`` is set.
    """

    gender: float | None
    race: float | None
    location: float | None
    interest: float | None
    combined: float
    no_signal: bool

    def to_dict(self) -> dict:
        return {
            "gender": self.gender,
            "race": self.race,
            "location": self.location,
            "interest": self.interest,
            "combined": self.combined,
            "no_signal": self.no_signal,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimilarityBreakdown":
        components = {name: data.get(name) for name in ("gender", "race", "location", "interest")}
        for name, value in components.items():
            if value is not None:
                components[name] = _fraction(name, value, "a number or null")
        combined = _fraction("combined", data.get("combined"), "a number")
        no_signal = data.get("no_signal")
        if not isinstance(no_signal, bool):
            raise RecordError(f"'no_signal' must be true or false, got {no_signal!r}")
        if no_signal != all(value is None for value in components.values()):
            raise RecordError("'no_signal' must be true exactly when every component is null")
        expected = _mean_of_present(components.values())
        if combined != expected:
            raise RecordError(f"similarity 'combined' must be {expected!r}, the mean of the "
                              f"present components (0.0 with none), got {combined!r}")
        return cls(**components, combined=combined, no_signal=no_signal)


def _mean_of_present(components: Iterable[float | None]) -> float:
    """The combined score: the mean of the components that are not None, in
    the order given, or 0.0 when none is."""
    present = [c for c in components if c is not None]
    return sum(present) / len(present) if present else 0.0


def _fraction(name: str, value, expected: str) -> float:
    """``value`` as a float in [0, 1], or a ``RecordError`` naming the similarity."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise RecordError(f"similarity {name!r} must be {expected}, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise RecordError(f"similarity {name!r} does not fit a float") from None
    if not 0.0 <= value <= 1.0:
        raise RecordError(f"similarity {name!r} must lie in [0, 1], got {value!r}")
    return value


def combined_score(p_student: AttributeProfile, p_model: AttributeProfile,
                   threshold: float = DEFAULT_FUZZY_THRESHOLD) -> SimilarityBreakdown:
    """Score one student–candidate pair across all four attributes."""
    gender = categorical_similarity(p_student.gender, p_model.gender)
    race = categorical_similarity(p_student.race, p_model.race)
    location = location_similarity(p_student.location, p_model.location)
    interest = interest_similarity(p_student.interests, p_model.interests, threshold)

    components = (gender, race, location, interest)
    return SimilarityBreakdown(*components, combined=_mean_of_present(components),
                               no_signal=all(c is None for c in components))
