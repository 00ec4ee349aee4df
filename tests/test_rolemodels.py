"""Industry taxonomy, STEM major list, and the role-model predicate."""

import pytest

from stem_match.records import CandidateRecord
from stem_match.rolemodels import (
    GROUP_NON_STEM,
    GROUP_RELATED,
    GROUP_STEM,
    KEPT_REASONS,
    REASON_NON_STEM,
    REASON_RELATED_WITH_DEGREE,
    REASON_RELATED_WITHOUT_DEGREE,
    REASON_STEM,
    REASON_UNKNOWN,
    REASONS,
    IndustryTaxonomy,
    TaxonomyError,
    default_majors,
    default_taxonomy,
    filter_role_models,
    load_majors,
    load_taxonomy,
    role_model_reason,
)

TAXONOMY = IndustryTaxonomy({
    "biotechnology": GROUP_STEM,
    "computer software": GROUP_STEM,
    "financial services": GROUP_RELATED,
    "hospital & health care": GROUP_RELATED,
    "restaurants": GROUP_NON_STEM,
})


def candidate(industry, majors=(), cid="c1"):
    return CandidateRecord(
        id=cid, industry=industry, education_majors=tuple(majors), location_raw="Denver, CO",
    )


# ---------------------------------------------------------------------------
# Predicate branches
# ---------------------------------------------------------------------------


def test_stem_industry_is_a_role_model_regardless_of_degree():
    assert role_model_reason(candidate("Biotechnology"), TAXONOMY, default_majors()) == REASON_STEM
    assert REASON_STEM in KEPT_REASONS


def test_related_industry_needs_a_stem_degree():
    majors = default_majors()
    with_degree = role_model_reason(
        candidate("Financial Services", majors=["History", "Computer Science"]), TAXONOMY, majors
    )
    assert with_degree == REASON_RELATED_WITH_DEGREE
    assert with_degree in KEPT_REASONS

    without = role_model_reason(
        candidate("Financial Services", majors=["History"]), TAXONOMY, majors
    )
    assert without == REASON_RELATED_WITHOUT_DEGREE
    assert without not in KEPT_REASONS


def test_major_resolution_is_exact_after_normalization():
    majors = default_majors()
    # aliases and case/whitespace variants resolve ...
    for form in ("cs", "CS", "  computer   science ", "Comp Sci"):
        assert majors.resolve(form) == "Computer Science", form
        reason = role_model_reason(candidate("Financial Services", majors=[form]), TAXONOMY,
                                   majors)
        assert reason == REASON_RELATED_WITH_DEGREE, form
    # ... but embedded mentions do not (no fuzzy matching)
    assert majors.resolve("B.S. in Computer Science") is None
    reason = role_model_reason(
        candidate("Financial Services", majors=["B.S. in Computer Science"]), TAXONOMY, majors
    )
    assert reason == REASON_RELATED_WITHOUT_DEGREE


def test_non_stem_industry_is_never_a_role_model():
    reason = role_model_reason(
        candidate("Restaurants", majors=["Computer Science"]), TAXONOMY, default_majors()
    )
    assert reason == REASON_NON_STEM
    assert reason not in KEPT_REASONS


def test_unknown_industry_is_its_own_reason():
    reason = role_model_reason(candidate("Basket Weaving"), TAXONOMY, default_majors())
    assert reason == REASON_UNKNOWN
    assert reason not in KEPT_REASONS


def test_filter_preserves_order_and_counts_every_reason():
    pool = [
        candidate("Biotechnology", cid="c1"),
        candidate("Restaurants", cid="c2"),
        candidate("Financial Services", majors=["cs"], cid="c3"),
        candidate("Financial Services", cid="c4"),
        candidate("Who Knows", cid="c5"),
    ]
    result = filter_role_models(pool, TAXONOMY, default_majors())
    assert [c.id for c in result.role_models] == ["c1", "c3"]
    assert set(result.counts) == set(REASONS)
    assert result.counts == {
        REASON_STEM: 1,
        REASON_RELATED_WITH_DEGREE: 1,
        REASON_RELATED_WITHOUT_DEGREE: 1,
        REASON_NON_STEM: 1,
        REASON_UNKNOWN: 1,
    }
    assert result.decisions["c4"] == REASON_RELATED_WITHOUT_DEGREE


def test_filter_maps_every_candidate_to_its_reason_in_input_order():
    pool = [
        candidate("Biotechnology", cid="c1"),
        candidate("Computer Software", cid="c2"),
        candidate("Financial Services", majors=["cs"], cid="c3"),
        candidate("Hospital & Health Care", majors=["Computer Science"], cid="c4"),
        candidate("Financial Services", majors=["Mathematics"], cid="c5"),
    ]
    majors = default_majors()
    result = filter_role_models(pool, TAXONOMY, majors)
    assert result.decisions == {
        "c1": REASON_STEM,
        "c2": REASON_STEM,
        "c3": REASON_RELATED_WITH_DEGREE,
        "c4": REASON_RELATED_WITH_DEGREE,
        "c5": REASON_RELATED_WITH_DEGREE,
    }
    assert list(result.decisions) == ["c1", "c2", "c3", "c4", "c5"]
    assert all(result.decisions[c.id] == role_model_reason(c, TAXONOMY, majors) for c in pool)
    assert [c.id for c in result.role_models] == ["c1", "c2", "c3", "c4", "c5"]


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_taxonomy_lookup_is_case_and_whitespace_insensitive():
    assert TAXONOMY.group_of("BIOTECHNOLOGY") == GROUP_STEM
    assert TAXONOMY.group_of("  hospital  &  health care ") == GROUP_RELATED
    assert TAXONOMY.group_of("underwater basket weaving") is None


def test_load_taxonomy_keeps_each_industry_as_the_file_spells_it_in_file_order(tmp_path):
    path = tmp_path / "taxonomy.jsonl"
    path.write_text(
        '{"industry": "Zoology  Labs", "group": "STEM"}\n'
        '{"industry": "Bakeries", "group": "non-STEM"}\n'
        '{"industry": "AEROSPACE", "group": "STEM"}\n',
        encoding="utf-8",
    )
    taxonomy = load_taxonomy(path)
    assert taxonomy.industries(GROUP_STEM) == ("Zoology  Labs", "AEROSPACE")
    assert taxonomy.industries(GROUP_NON_STEM) == ("Bakeries",)
    assert taxonomy.industries(GROUP_RELATED) == ()
    assert taxonomy.group_of("zoology labs") == GROUP_STEM


def test_load_taxonomy_rejects_duplicates_and_bad_groups(tmp_path):
    path = tmp_path / "taxonomy.jsonl"
    path.write_text(
        '{"industry": "A", "group": "STEM"}\n{"industry": "a", "group": "STEM"}\n',
        encoding="utf-8",
    )
    with pytest.raises(TaxonomyError):
        load_taxonomy(path)
    path.write_text('{"industry": "A", "group": "VERY-STEM"}\n', encoding="utf-8")
    with pytest.raises(TaxonomyError):
        load_taxonomy(path)


def test_load_majors_rejects_duplicate_aliases(tmp_path):
    path = tmp_path / "majors.jsonl"
    path.write_text(
        '{"major": "Computer Science", "aliases": ["cs"]}\n'
        '{"major": "Cognitive Science", "aliases": ["cs"]}\n',
        encoding="utf-8",
    )
    with pytest.raises(TaxonomyError):
        load_majors(path)


def test_bundled_taxonomy_covers_the_standard_industry_list():
    taxonomy = default_taxonomy()
    assert len(taxonomy.groups) == 147
    groups = list(taxonomy.groups.values())
    assert groups.count(GROUP_STEM) == 23
    assert groups.count(GROUP_RELATED) == 27
    assert groups.count(GROUP_NON_STEM) == 97
    # spot checks across the three groups
    assert taxonomy.group_of("Computer Software") == GROUP_STEM
    assert taxonomy.group_of("Higher Education") == GROUP_RELATED
    assert taxonomy.group_of("Restaurants") == GROUP_NON_STEM


def test_bundled_majors_list():
    majors = default_majors()
    assert len(majors.canonical) == 38
    assert majors.resolve("computer science") == "Computer Science"
    assert majors.resolve("underwater basket weaving") is None
