"""Record types, and the readers of every JSON Lines file the package loads.

Students carry Twitter-style data (tweets, bio, free-text location) and
candidates carry LinkedIn-style data (industry, education, interests,
skills).  Demographic predictions from external services are ingested as
``PredictorOutput`` rows attached to each record instead of being fetched
live, so runs are reproducible offline.

All record types are immutable once constructed and validate their own
invariants, which keeps downstream stages free to share them across threads
without copying.  Validated sub-records may be shared as well: within one
load, records with equal predictor outputs hold the same ``PredictorOutput``
objects (and the same tuple of them), and a candidate's industry, location,
major, interest and skill strings are one object per distinct value.  The
sharing table is a plain dict that lives for one load call, so two loads
share nothing.

This module imports no other module of the package: whether a candidate's
industry is known is decided by the role-model filter in ``rolemodels``.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path

PREDICTOR_SOURCES = ("name-gender", "name-demographics", "face")
GENDER_VALUES = ("female", "male")
RACE_VALUES = ("White", "Black", "Asian", "Api", "Hispanic")
ATTRIBUTE_VALUES: dict[str, tuple[str, ...]] = {
    "gender": GENDER_VALUES,
    "race": RACE_VALUES,
}

# Hard cap on tweets kept per student.  Tweets are chronological (oldest
# first); truncation keeps the tail, i.e. the most recent tweets.
MAX_TWEETS = 200

_WS_RUN = re.compile(r"\s+")

# The bundled rules, industry taxonomy and STEM major list.
DATA_DIR = Path(__file__).with_name("data")


class RecordError(ValueError):
    """Raised when a record violates one of its invariants."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictorOutput:
    """One demographic prediction for one subject from one source.

    ``value`` and ``accuracy`` are both null when the source could not
    produce a prediction; ``accuracy`` is the source's reported accuracy
    for this kind of prediction, not a per-subject confidence.
    """

    source: str
    attribute: str
    value: str | None = None
    accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.source not in PREDICTOR_SOURCES:
            raise RecordError(f"unknown predictor source {self.source!r}")
        if self.attribute not in ATTRIBUTE_VALUES:
            raise RecordError(f"unknown predicted attribute {self.attribute!r}")
        if (self.value is None) != (self.accuracy is None):
            raise RecordError("prediction value and accuracy must be both set or both null")
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise RecordError(f"accuracy {self.accuracy} outside [0, 1]")
        if self.value is not None and self.value not in ATTRIBUTE_VALUES[self.attribute]:
            raise RecordError(f"value {self.value!r} not in the {self.attribute} vocabulary")

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "attribute": self.attribute,
            "value": self.value,
            "accuracy": self.accuracy,
        }


@dataclass(frozen=True)
class StudentRecord:
    """One college-student-candidate Twitter user.

    A record with no tweets is only accepted when the bio is nonempty,
    otherwise there is nothing to label, classify, or match on.
    """

    id: str
    tweets: tuple[str, ...] = ()
    bio: str = ""
    display_name: str = ""
    location_raw: str = ""
    predictor_outputs: tuple[PredictorOutput, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise RecordError("student id must be nonempty")
        if not self.tweets and not self.bio.strip():
            raise RecordError("student has zero tweets and an empty bio")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "tweets": list(self.tweets),
            "bio": self.bio,
            "display_name": self.display_name,
            "location_raw": self.location_raw,
            "predictor_outputs": [p.to_dict() for p in self.predictor_outputs],
        }

    @classmethod
    def from_dict(cls, data: Mapping, shared: dict | None = None) -> "StudentRecord":
        """Build a student from a parsed JSON object.

        ``shared`` is the sharing table of one load (see the module
        docstring); equal predictor outputs found in it are reused.
        """
        tweets = _str_list(data, "tweets")
        if len(tweets) > MAX_TWEETS:
            tweets = tweets[-MAX_TWEETS:]
        return cls(
            id=_require_str(data, "id"),
            tweets=tuple(tweets),
            bio=_optional_str(data, "bio"),
            display_name=_optional_str(data, "display_name"),
            location_raw=_optional_str(data, "location_raw"),
            predictor_outputs=_outputs(data, {} if shared is None else shared),
        )


@dataclass(frozen=True)
class CandidateRecord:
    """One role-model-candidate LinkedIn profile.

    The industry is kept as written; whether it is in the industry taxonomy
    is the role-model filter's to decide.
    """

    id: str
    full_name: str = ""
    industry: str = ""
    education_majors: tuple[str, ...] = ()
    interests_raw: tuple[str, ...] = ()
    skills_raw: tuple[str, ...] = ()
    location_raw: str = ""
    predictor_outputs: tuple[PredictorOutput, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise RecordError("candidate id must be nonempty")
        if not self.location_raw.strip():
            raise RecordError("candidate location_raw must be nonempty")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "full_name": self.full_name,
            "industry": self.industry,
            "education_majors": list(self.education_majors),
            "interests_raw": list(self.interests_raw),
            "skills_raw": list(self.skills_raw),
            "location_raw": self.location_raw,
            "predictor_outputs": [p.to_dict() for p in self.predictor_outputs],
        }

    @classmethod
    def from_dict(cls, data: Mapping, shared: dict | None = None) -> "CandidateRecord":
        """Build a candidate from a parsed JSON object.

        ``shared`` is the sharing table of one load (see the module
        docstring); equal predictor outputs and small-vocabulary strings
        found in it are reused.
        """
        if shared is None:
            shared = {}
        return cls(
            id=_require_str(data, "id"),
            full_name=_optional_str(data, "full_name"),
            industry=_shared_str(data, "industry", shared),
            education_majors=_shared_strs(data, "education_majors", shared),
            interests_raw=_shared_strs(data, "interests_raw", shared),
            skills_raw=_shared_strs(data, "skills_raw", shared),
            location_raw=_shared_str(data, "location_raw", shared),
            predictor_outputs=_outputs(data, shared),
        )


@dataclass(frozen=True)
class AttributeProfile:
    """Resolved, comparison-ready attributes for one person.

    Absent attributes stay ``None`` rather than taking a sentinel value;
    similarity scoring skips them instead of penalizing them.
    """

    gender: str | None = None
    race: str | None = None
    location: str | None = None
    interests: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.gender is not None and self.gender not in GENDER_VALUES:
            raise RecordError(f"gender {self.gender!r} not in the gender vocabulary")
        if self.race is not None and self.race not in RACE_VALUES:
            raise RecordError(f"race {self.race!r} not in the race vocabulary")
        if self.location is not None and not self.location:
            raise RecordError("location must be nonempty when present")
        object.__setattr__(self, "interests", frozenset(self.interests))
        for interest in self.interests:
            if not interest:
                raise RecordError("interest strings must be nonempty")
            if interest.startswith("#"):
                raise RecordError(f"interest {interest!r} still carries a '#' prefix")

    def to_dict(self) -> dict:
        return {
            "gender": self.gender,
            "race": self.race,
            "location": self.location,
            "interests": sorted(self.interests),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AttributeProfile":
        interests = data.get("interests", [])
        if not isinstance(interests, list) or any(not isinstance(i, str) for i in interests):
            raise RecordError("interests must be a list of strings")
        location = data.get("location")
        if location is not None and not isinstance(location, str):
            raise RecordError("location must be a string or null")
        return cls(
            gender=data.get("gender"),
            race=data.get("race"),
            location=location,
            interests=frozenset(interests),
        )


# ---------------------------------------------------------------------------
# Field coercion helpers
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    """Whether ``v`` is an integer, and not a bool, which Python counts as one."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_str(data: Mapping, key: str) -> str:
    value = data.get(key)
    if not isinstance(value, str):
        raise RecordError(f"field {key!r} must be a string")
    return value


def _optional_str(data: Mapping, key: str) -> str:
    value = data.get(key, "")
    if value is None:
        return ""
    if not isinstance(value, str):
        raise RecordError(f"field {key!r} must be a string")
    return value


def _str_list(data: Mapping, key: str) -> list[str]:
    value = data.get(key, [])
    if not isinstance(value, list) or any(not isinstance(item, str) for item in value):
        raise RecordError(f"field {key!r} must be a list of strings")
    return value


def _shared_str(data: Mapping, key: str, shared: dict) -> str:
    value = _optional_str(data, key)
    return shared.setdefault(value, value)


def _shared_strs(data: Mapping, key: str, shared: dict) -> tuple[str, ...]:
    return tuple([shared.setdefault(item, item) for item in _str_list(data, key)])


def _output_fields(data: Mapping) -> tuple[str, str, str | None, float | None]:
    """The type-checked fields of one raw predictor output, accuracy as a float."""
    if not isinstance(data, Mapping):
        raise RecordError("predictor output must be an object")
    accuracy = data.get("accuracy")
    if accuracy is not None:
        if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float)):
            raise RecordError("accuracy must be a number or null")
        try:
            accuracy = float(accuracy)
        except OverflowError:
            raise RecordError("accuracy does not fit a float") from None
    value = data.get("value")
    if value is not None and not isinstance(value, str):
        raise RecordError("prediction value must be a string or null")
    return _require_str(data, "source"), _require_str(data, "attribute"), value, accuracy


def _outputs(data: Mapping, shared: dict) -> tuple[PredictorOutput, ...]:
    """A record's predictor outputs, each distinct one validated and built once.

    Fields are type-checked before they are looked up, so a value that
    only compares equal to a valid one (``true`` for ``1.0``) is still
    rejected.  A zero accuracy keys on its sign too, so ``-0.0`` and
    ``0.0`` keep the sign they were read with.  The tuple of outputs is
    shared as well.
    """
    raw = data.get("predictor_outputs", [])
    if not isinstance(raw, list):
        raise RecordError("field 'predictor_outputs' must be a list")
    keys = tuple([_output_key(item) for item in raw])
    outputs = shared.get(keys)
    if outputs is None:
        for key in keys:
            if key not in shared:
                shared[key] = PredictorOutput(*key[:4])
        outputs = shared[keys] = tuple([shared[key] for key in keys])
    return outputs


def _output_key(item) -> tuple:
    key = _output_fields(item)
    return key + (math.copysign(1.0, key[3]),) if key[3] == 0.0 else key


# ---------------------------------------------------------------------------
# JSON Lines loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadError:
    """One rejected input line: its 1-based line number and the reason."""

    line: int
    message: str


@dataclass
class LoadResult:
    """Validated records plus the per-line errors encountered on the way."""

    records: list
    errors: list[LoadError] = field(default_factory=list)


def _parse_line(line: str) -> dict:
    """The parse step of the row loop: a JSON object or a RecordError."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise RecordError("not a JSON object")
    return data


def _read_rows(path: str | Path, build, key, errors: list[LoadError] | None = None) -> list:
    """The row loop of every JSON Lines reader: ``read_jsonl`` without ``errors``.

    With ``errors``, a line that raises a ValueError is appended to it as a
    ``LoadError`` (no path or line prefix) and skipped; the rest still loads.
    """
    items = []
    ids = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = _parse_line(line)
                item = row if build is None else build(row)
                if key is not None:
                    item_id = key(item)
                    if not isinstance(item_id, str) or not item_id:
                        raise RecordError(f"id must be a nonempty string, got {item_id!r}")
                    if item_id in ids:
                        raise RecordError(f"duplicate id {item_id!r}")
                    ids.add(item_id)
            except ValueError as exc:
                if errors is None:
                    raise type(exc)(f"{path} line {line_no}: {exc}") from exc
                errors.append(LoadError(line_no, str(exc)))
                continue
            items.append(item)
    return items


def load_students(path: str | Path) -> LoadResult:
    """Load students from a JSON Lines file.

    Returns every record that passes validation; rejected lines are listed
    in ``errors`` with their line numbers.  Duplicate ids keep the first
    occurrence.  Tweet lists longer than ``MAX_TWEETS`` are truncated to
    the most recent ``MAX_TWEETS`` entries.
    """
    shared: dict = {}
    errors: list[LoadError] = []
    build = partial(StudentRecord.from_dict, shared=shared)
    return LoadResult(_read_rows(path, build, attrgetter("id"), errors), errors)


def load_candidates(path: str | Path) -> LoadResult:
    """Load candidates from a JSON Lines file.

    Like ``load_students``: rejected lines are listed in ``errors`` and
    duplicate ids keep the first occurrence.  A candidate whose industry
    is not in the taxonomy loads like any other; the role-model filter
    gives it the reason ``unknown-industry``.
    """
    shared: dict = {}
    errors: list[LoadError] = []
    build = partial(CandidateRecord.from_dict, shared=shared)
    return LoadResult(_read_rows(path, build, attrgetter("id"), errors), errors)


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` as UTF-8 with ``\\n`` newlines.

    ``chunks`` is consumed one at a time, so it may be a generator.  The
    file appears whole or not at all: chunks go to a temporary file in the
    same directory, which replaces ``path`` only once every chunk is written
    and is deleted when anything raises.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    handle = open(temp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> None:
    """Write one JSON object per line, UTF-8, deterministic field order,
    through ``write_atomic``; ``rows`` may be a generator."""
    write_atomic(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def read_jsonl(path: str | Path, build: Callable[[dict], object] | None = None,
               key: Callable[[object], object] | None = None) -> list:
    """One item per non-blank line of a JSON Lines file, in file order.

    The strict loader: each line is parsed into a JSON object and handed to
    ``build``, whose result is the line's item (the object itself when
    ``build`` is None).  ``key``, when given, returns an item's id: an id
    that is not a nonempty string, or that an earlier item had, is a
    RecordError.  A ValueError from any step is raised again, as the same
    type, with the prefix "<path> line <n>: ".
    """
    return _read_rows(path, build, key)
