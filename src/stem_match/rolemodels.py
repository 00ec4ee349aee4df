"""STEM role-model identification from industry and education.

Each candidate gets one of five reasons (``REASONS``).  A candidate
qualifies as a role model when their industry is in the STEM group
outright, or in the STEM-related group and at least one of their
education majors resolves to a STEM major: the two ``KEPT_REASONS``.
A STEM-related industry without such a major, a non-STEM industry and
an industry the taxonomy does not list are the three that reject.  The
industry → group mapping and the STEM major list (with aliases) are
editable JSON Lines data; the bundled defaults cover the standard
147-industry vocabulary and a 38-major list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .records import _WS_RUN, DATA_DIR, CandidateRecord, read_jsonl

GROUP_STEM = "STEM"
GROUP_RELATED = "STEM-related"
GROUP_NON_STEM = "non-STEM"
GROUPS = (GROUP_STEM, GROUP_RELATED, GROUP_NON_STEM)

REASON_STEM = "stem-industry"
REASON_RELATED_WITH_DEGREE = "stem-related-with-stem-degree"
REASON_RELATED_WITHOUT_DEGREE = "stem-related-without-stem-degree"
REASON_NON_STEM = "non-stem-industry"
REASON_UNKNOWN = "unknown-industry"
REASONS = (
    REASON_STEM,
    REASON_RELATED_WITH_DEGREE,
    REASON_RELATED_WITHOUT_DEGREE,
    REASON_NON_STEM,
    REASON_UNKNOWN,
)
KEPT_REASONS = frozenset({REASON_STEM, REASON_RELATED_WITH_DEGREE})


class TaxonomyError(ValueError):
    """Raised for malformed taxonomy or major-list files."""


def _norm_key(text: str) -> str:
    """Case/whitespace-insensitive key used for vocabulary lookups."""
    return _WS_RUN.sub(" ", text.strip()).casefold()


@dataclass(frozen=True)
class IndustryTaxonomy:
    """Mapping from industry name to STEM / STEM-related / non-STEM."""

    groups: Mapping[str, str]  # normalized industry name -> group, in file order
    # normalized industry name -> the name as the file spells it
    names: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.groups:
            raise TaxonomyError("taxonomy must not be empty")
        for name, group in self.groups.items():
            if group not in GROUPS:
                raise TaxonomyError(f"industry {name!r} has unknown group {group!r}")

    def group_of(self, industry: str) -> str | None:
        """Group for an industry name, case- and whitespace-insensitive."""
        return self.groups.get(_norm_key(industry))

    def industries(self, group: str) -> tuple[str, ...]:
        """The industries of ``group`` in file order, spelled as in the file."""
        return tuple(self.names.get(key, key) for key, value in self.groups.items()
                     if value == group)


@dataclass(frozen=True)
class StemMajorList:
    """Canonical STEM majors plus aliases, matched case-insensitively."""

    canonical: tuple[str, ...]
    _lookup: Mapping[str, str] = field(repr=False)  # normalized name/alias -> canonical

    def resolve(self, major: str) -> str | None:
        """Canonical major for a free-text degree subject, or None.

        Matching is exact after case folding and whitespace collapsing —
        no fuzzy matching, so "B.S. in Computer Science" does not resolve
        but "computer science" and the alias "cs" do.
        """
        return self._lookup.get(_norm_key(major))


def load_taxonomy(path: str | Path) -> IndustryTaxonomy:
    groups: dict[str, str] = {}
    names: dict[str, str] = {}

    def add(row: Mapping) -> None:
        name = row.get("industry")
        group = row.get("group")
        if not isinstance(name, str) or not name.strip():
            raise TaxonomyError("industry name must be a nonempty string")
        key = _norm_key(name)
        if key in groups:
            raise TaxonomyError(f"duplicate industry {name!r}")
        if group not in GROUPS:
            raise TaxonomyError(f"unknown group {group!r}")
        groups[key] = group
        names[key] = name

    read_jsonl(path, add)
    return IndustryTaxonomy(groups, names)


def default_taxonomy() -> IndustryTaxonomy:
    """The bundled taxonomy covering all 147 standard industry names."""
    return load_taxonomy(DATA_DIR / "taxonomy.jsonl")


def load_majors(path: str | Path) -> StemMajorList:
    lookup: dict[str, str] = {}

    def add(row: Mapping) -> str:
        major = row.get("major")
        aliases = row.get("aliases", [])
        if not isinstance(major, str) or not major.strip():
            raise TaxonomyError("major must be a nonempty string")
        if not isinstance(aliases, list) or any(not isinstance(a, str) for a in aliases):
            raise TaxonomyError("aliases must be a list of strings")
        for name in [major, *aliases]:
            key = _norm_key(name)
            if key in lookup:
                raise TaxonomyError(f"{name!r} already maps to {lookup[key]!r}")
            lookup[key] = major
        return major

    canonical = read_jsonl(path, add)
    if not canonical:
        raise TaxonomyError(f"{path}: major list must not be empty")
    return StemMajorList(tuple(canonical), lookup)


def default_majors() -> StemMajorList:
    """The bundled 38-major STEM list."""
    return load_majors(DATA_DIR / "majors.jsonl")


# ---------------------------------------------------------------------------
# The role-model predicate
# ---------------------------------------------------------------------------


def role_model_reason(candidate: CandidateRecord, taxonomy: IndustryTaxonomy,
                      majors: StemMajorList) -> str:
    """The one of ``REASONS`` that decides whether a candidate is a STEM role model.

    The candidate is kept exactly when the reason is in ``KEPT_REASONS``.
    Depends only on the industry and education majors; every other
    candidate field is ignored.
    """
    group = taxonomy.group_of(candidate.industry)
    if group is None:
        return REASON_UNKNOWN
    if group == GROUP_STEM:
        return REASON_STEM
    if group == GROUP_RELATED:
        if any(majors.resolve(major) is not None for major in candidate.education_majors):
            return REASON_RELATED_WITH_DEGREE
        return REASON_RELATED_WITHOUT_DEGREE
    return REASON_NON_STEM


@dataclass
class FilterResult:
    """Role models in input order, every candidate's reason, and per-reason counts."""

    role_models: list[CandidateRecord]
    decisions: dict[str, str]  # candidate id -> reason
    counts: dict[str, int]


def filter_role_models(candidates: Iterable[CandidateRecord], taxonomy: IndustryTaxonomy,
                       majors: StemMajorList) -> FilterResult:
    """Keep the candidates that qualify, preserving input order."""
    kept: list[CandidateRecord] = []
    decisions: dict[str, str] = {}
    counts = {reason: 0 for reason in REASONS}
    for candidate in candidates:
        reason = decisions[candidate.id] = role_model_reason(candidate, taxonomy, majors)
        counts[reason] += 1
        if reason in KEPT_REASONS:
            kept.append(candidate)
    return FilterResult(kept, decisions, counts)
