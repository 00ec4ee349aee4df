"""Weak labeling of students as college / non-college by pattern rules.

Rules are case-insensitive regular expressions matched independently
against the bio and against every tweet.  A student matching only college
rules is labeled college, only non-college rules non-college; matching
both sides is a conflict and leaves the student unlabeled with both rule
sets recorded for review.  Each rule is gated by a literal it requires
(``LabelRule.gate``): its regex runs only for students whose case-folded
text contains that literal, which skips most searches and leaves every
label unchanged.  Rules live in an editable JSON Lines file, and
a labels file may carry a manual ``override`` column that takes precedence
over the weak label downstream.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .records import DATA_DIR, StudentRecord, read_jsonl

if sys.version_info >= (3, 11):
    from re import _parser as _sre_parse
else:  # ``sre_parse`` is deprecated from 3.11 on
    import sre_parse as _sre_parse

COLLEGE = "college"
NON_COLLEGE = "non-college"
UNLABELED = "unlabeled"
LABEL_VALUES = (COLLEGE, NON_COLLEGE, UNLABELED)


class LabelError(ValueError):
    """Raised for invalid rules or label files."""


# Under re.IGNORECASE the only non-ASCII characters that match an ASCII
# character are these three and the Kelvin sign, which str.lower() already
# maps to "k".  str.lower() leaves "ı" and "ſ" as they are and turns "İ"
# into "i" plus a combining dot, so they are mapped first.
_ASCII_TWINS = {"\u0130": "i", "\u0131": "i", "\u017f": "s"}
_TO_ASCII_TWIN = str.maketrans(_ASCII_TWINS)


def _fold(text: str) -> str:
    """``text`` lowercased so that every ASCII literal a case-insensitive
    regex matches in it appears in the result as its lowercase form."""
    if not text.isascii() and any(twin in text for twin in _ASCII_TWINS):
        text = text.translate(_TO_ASCII_TWIN)
    return text.lower()


def _required_literals(items) -> tuple[str, ...]:
    """Lowercase ASCII literals, one of which every match of ``items`` contains.

    ``items`` is a parsed regex sequence.  Each maximal run of ASCII
    ``LITERAL`` ops is required, and so is a ``BRANCH`` whose every
    alternative requires literals of its own, as an any-of set.  Of these
    the one whose shortest literal is longest is kept; none gives ``()``.
    """
    candidates: list[tuple[str, ...]] = []
    run: list[str] = []
    for op, av in [*items, (None, None)]:
        if op is _sre_parse.LITERAL and av < 0x80:
            run.append(chr(av))
            continue
        if run:
            candidates.append(("".join(run).lower(),))
            run = []
        if op is _sre_parse.BRANCH:
            alternatives = [_required_literals(alt) for alt in av[1]]
            if all(alternatives):
                candidates.append(tuple(dict.fromkeys(sum(alternatives, ()))))
    return max(candidates, key=lambda literals: min(map(len, literals)), default=())


@dataclass(frozen=True)
class LabelRule:
    """One labeling rule: a regex pattern voting for one label.

    ``gate`` holds lowercase ASCII literals taken from the pattern's parse
    tree, one of which every match contains (empty when the pattern has
    none).  A text the pattern matches therefore folds, under ``_fold``, to
    a string containing a gate literal, and a student whose folded text
    contains none cannot match the rule.
    """

    pattern: str
    label: str
    description: str
    gate: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.label not in (COLLEGE, NON_COLLEGE):
            raise LabelError(f"rule label must be college or non-college, got {self.label!r}")
        try:
            compiled = re.compile(self.pattern, re.IGNORECASE)
        except re.error as exc:
            raise LabelError(f"rule {self.description!r}: invalid pattern: {exc}") from exc
        object.__setattr__(self, "_compiled", compiled)
        object.__setattr__(self, "gate", _required_literals(
            _sre_parse.parse(self.pattern, re.IGNORECASE)))

    def may_match(self, folded: str) -> bool:
        """Whether a student whose ``_fold``-ed text is ``folded`` can match:
        it holds a gate literal, or the gate is empty."""
        for literal in self.gate:
            if literal in folded:
                return True
        return not self.gate

    def matches(self, record: StudentRecord) -> bool:
        """True when the pattern hits the bio or any single tweet."""
        compiled: re.Pattern = self._compiled  # type: ignore[attr-defined]
        if compiled.search(record.bio):
            return True
        return any(compiled.search(tweet) for tweet in record.tweets)


@dataclass(frozen=True)
class WeakLabel:
    """Label assigned by the rules, with the rules that produced it.

    ``matched_rules`` holds the descriptions of the rules backing the
    assigned label and is empty exactly when the value is unlabeled.  A
    conflict (rules on both sides matched) also comes out unlabeled, with
    the two sides preserved in the conflict fields.
    """

    value: str
    matched_rules: tuple[str, ...] = ()
    conflict_college: tuple[str, ...] = ()
    conflict_non_college: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.value not in LABEL_VALUES:
            raise LabelError(f"unknown label value {self.value!r}")
        if (self.value == UNLABELED) != (not self.matched_rules):
            raise LabelError("matched_rules must be empty exactly for unlabeled records")

    @property
    def is_conflict(self) -> bool:
        return bool(self.conflict_college or self.conflict_non_college)


def label_student(record: StudentRecord, rules: Sequence[LabelRule]) -> WeakLabel:
    """Apply every rule to one student and combine the votes.

    Idempotent and independent of rule order up to the ordering of the
    recorded rule descriptions, which follows the given rule sequence.  A
    rule's regex runs only when its gate admits the student's folded bio
    and tweets, joined by newlines.
    """
    if not rules:
        raise LabelError("rule list must be nonempty")
    folded = _fold("\n".join((record.bio, *record.tweets)))
    hits = [r for r in rules if r.may_match(folded) and r.matches(record)]
    college_hits = tuple(r.description for r in hits if r.label == COLLEGE)
    non_college_hits = tuple(r.description for r in hits if r.label == NON_COLLEGE)
    if college_hits and non_college_hits:
        return WeakLabel(UNLABELED, (), college_hits, non_college_hits)
    if college_hits:
        return WeakLabel(COLLEGE, college_hits)
    if non_college_hits:
        return WeakLabel(NON_COLLEGE, non_college_hits)
    return WeakLabel(UNLABELED)


def label_counts(values: Iterable[str]) -> dict[str, int]:
    """How many of ``values`` are each label, keyed in ``LABEL_VALUES`` order."""
    counts = Counter(values)
    return {value: counts[value] for value in LABEL_VALUES}


@dataclass
class LabelPartition:
    """The weak label of every student of a corpus, by student id."""

    labels: dict[str, WeakLabel] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return label_counts(label.value for label in self.labels.values())


def label_corpus(records: Iterable[StudentRecord], rules: Sequence[LabelRule]) -> LabelPartition:
    """Label every record."""
    return LabelPartition({record.id: label_student(record, rules) for record in records})


# ---------------------------------------------------------------------------
# Rule and label files
# ---------------------------------------------------------------------------


def _rule(row: Mapping) -> LabelRule:
    """One rules-file row as a rule: a nonempty string ``pattern``, a string
    ``label`` and, when present, a string ``description``."""
    pattern, label, description = row.get("pattern"), row.get("label"), row.get("description", "")
    if not isinstance(pattern, str) or not pattern:
        raise LabelError(f"rule pattern must be a nonempty string, got {pattern!r}")
    for name, value in (("label", label), ("description", description)):
        if not isinstance(value, str):
            raise LabelError(f"rule {name} must be a string, got {value!r}")
    return LabelRule(pattern, label, description)


def load_rules(path: str | Path) -> list[LabelRule]:
    """Load rules from a JSON Lines file; any invalid rule is fatal."""
    return read_jsonl(path, _rule)


def default_rules() -> list[LabelRule]:
    """The bundled starter rule set.

    Small and precision-oriented: campus-life phrases and class-year
    shorthands vote college; parental/occupational self-descriptions vote
    non-college.  Meant to be replaced or extended per deployment.
    """
    return load_rules(DATA_DIR / "rules.jsonl")


def label_rows(partition: LabelPartition, records: Iterable[StudentRecord]) -> Iterator[dict]:
    """Serializable labels-file rows, one per record, in record order.

    Rows are built one at a time as they are consumed.
    """
    for record in records:
        label = partition.labels[record.id]
        row: dict = {
            "id": record.id,
            "label": label.value,
            "matched_rules": list(label.matched_rules),
        }
        if label.is_conflict:
            row["conflict_college"] = list(label.conflict_college)
            row["conflict_non_college"] = list(label.conflict_non_college)
        yield row


def effective_label(row: Mapping) -> str:
    """Label for one labels-file row, honoring a manual override."""
    override = row.get("override")
    if override is not None:
        if override not in LABEL_VALUES:
            raise LabelError(f"override {override!r} is not a known label")
        return override
    label = row.get("label")
    if label not in LABEL_VALUES:
        raise LabelError(f"label {label!r} is not a known label")
    return label


def read_labels(path: str | Path) -> dict[str, str]:
    """Map of student id → effective label from a labels file."""
    return dict(read_jsonl(path, lambda row: (row.get("id"), effective_label(row)),
                           key=lambda pair: pair[0]))
