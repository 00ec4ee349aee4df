"""Attribute resolution: predictor outputs and raw text → comparable profiles.

Gender and race may be predicted by several sources per person; the value
from the source with the highest reported accuracy wins, with a fixed
source-priority order breaking exact ties.  Locations are kept verbatim
apart from case/whitespace normalization (no geocoding — "mcallentx" stays
as it is).  Student interests are the hashtags used in their tweets;
candidate interests are their stated interests and skills.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .records import (
    AttributeProfile,
    CandidateRecord,
    PredictorOutput,
    RecordError,
    StudentRecord,
    _WS_RUN,
    read_jsonl,
    write_jsonl,
)
from .similarity import normalize_location

# Tie-break order between sources reporting the same accuracy.
SOURCE_PRIORITY = {"name-gender": 0, "face": 1, "name-demographics": 2}

_HASHTAG = re.compile(r"#(\w+)")


def _resolve(outputs: Iterable[PredictorOutput], attribute: str) -> PredictorOutput | None:
    """The highest-accuracy non-null prediction for one attribute, or None.

    Ties go to the higher-priority source (name-gender, then face, then
    name-demographics), then to the lexicographically smaller value, so
    resolution is a pure function of the set of predictions regardless of
    their order.
    """
    best: tuple[float, int, str] | None = None
    winner: PredictorOutput | None = None
    for output in outputs:
        if output.attribute != attribute or output.value is None:
            continue
        key = (-output.accuracy, SOURCE_PRIORITY[output.source], output.value)
        if best is None or key < best:
            best = key
            winner = output
    return winner


def resolve_gender(outputs: Iterable[PredictorOutput]) -> PredictorOutput | None:
    return _resolve(outputs, "gender")


def resolve_race(outputs: Iterable[PredictorOutput]) -> PredictorOutput | None:
    return _resolve(outputs, "race")


def resolve_location(location_raw: str) -> str | None:
    """Normalized location string, or None when there is nothing there."""
    normalized = normalize_location(location_raw)
    return normalized or None


def extract_student_interests(record: StudentRecord) -> frozenset[str]:
    """Unique lowercased hashtag bodies across all of a student's tweets.

    A hashtag is '#' followed by one or more word characters; trailing
    punctuation is not part of the tag.
    """
    interests = set()
    for tweet in record.tweets:
        for body in _HASHTAG.findall(tweet):
            interests.add(body.lower())
    return frozenset(interests)


def _clean_interest(text: str) -> str:
    return _WS_RUN.sub(" ", text.strip().lstrip("#")).strip().lower()


def extract_candidate_interests(record: CandidateRecord) -> frozenset[str]:
    """Union of a candidate's stated interests and skills, normalized."""
    interests = set()
    for raw in (*record.interests_raw, *record.skills_raw):
        cleaned = _clean_interest(raw)
        if cleaned:
            interests.add(cleaned)
    return frozenset(interests)


def build_profile(record: StudentRecord | CandidateRecord) -> AttributeProfile:
    """Resolve one record into its comparison-ready attribute profile."""
    if isinstance(record, StudentRecord):
        interests = extract_student_interests(record)
    elif isinstance(record, CandidateRecord):
        interests = extract_candidate_interests(record)
    else:
        raise RecordError(f"cannot build a profile from {type(record).__name__}")
    gender = resolve_gender(record.predictor_outputs)
    race = resolve_race(record.predictor_outputs)
    return AttributeProfile(
        gender=gender.value if gender else None,
        race=race.value if race else None,
        location=resolve_location(record.location_raw),
        interests=interests,
    )


# ---------------------------------------------------------------------------
# Profile files
# ---------------------------------------------------------------------------


def profile_rows(pairs: Iterable[tuple[str, AttributeProfile]]) -> Iterator[dict]:
    """The profile-file rows, built one at a time as they are consumed."""
    for subject_id, profile in pairs:
        yield {"id": subject_id, **profile.to_dict()}


def write_profiles(path: str | Path, pairs: Iterable[tuple[str, AttributeProfile]]) -> None:
    write_jsonl(path, profile_rows(pairs))


def load_profiles(path: str | Path) -> list[tuple[str, AttributeProfile]]:
    """Load (id, profile) pairs; malformed rows or duplicate ids are fatal.

    Profile files are pipeline-internal artifacts, so unlike raw record
    ingestion this loader does not skip bad lines.
    """
    return read_jsonl(path, lambda row: (row.get("id"), AttributeProfile.from_dict(row)),
                      key=lambda pair: pair[0])
