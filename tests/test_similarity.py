"""String, set, and combined similarity kernels."""

import gc
import random

import pytest

import oracles
from stem_match.records import AttributeProfile
from stem_match.similarity import (
    SimilarityBreakdown,
    categorical_similarity,
    combined_score,
    fuzzy_overlap,
    interest_similarity,
    lev_similarity,
    levenshtein,
    location_similarity,
    max_matching_size,
    normalize_location,
)

# Expected distances computed with an independent memoized-recursive
# implementation and frozen here.
KNOWN_DISTANCES = [
    ("kitten", "sitting", 3),
    ("saturday", "sunday", 3),
    ("intention", "execution", 5),
    ("flaw", "lawn", 2),
    ("gumbo", "gambol", 2),
    ("café", "cafe", 1),
    ("αβγ", "αγ", 1),
    ("🙂🙃", "🙂", 1),
    ("", "", 0),
    ("", "abc", 3),
    ("same", "same", 0),
]


@pytest.mark.parametrize("s1,s2,expected", KNOWN_DISTANCES)
def test_levenshtein_known_values(s1, s2, expected):
    assert levenshtein(s1, s2) == expected
    assert levenshtein(s2, s1) == expected


def test_levenshtein_counts_code_points_not_bytes():
    # multi-byte characters are single edits
    assert levenshtein("héllo", "hello") == 1
    assert levenshtein("🙂", "x") == 1


def test_lev_similarity_normalizes_by_total_length():
    assert lev_similarity("kitten", "sitting") == (6 + 7 - 3) / 13
    assert lev_similarity("", "") == 1.0
    assert lev_similarity("", "ab") == 0.0
    assert lev_similarity("abc", "abc") == 1.0


def test_lev_similarity_agrees_with_oracle_on_random_pairs():
    rng = random.Random(99)
    alphabet = "abcdefαβ🙂 "
    for _ in range(300):
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        assert levenshtein(s1, s2) == oracles.edit_distance(s1, s2)
        assert lev_similarity(s1, s2) == oracles.edit_similarity(s1, s2)


def test_categorical_similarity():
    assert categorical_similarity("female", "female") == 1.0
    assert categorical_similarity("female", "male") == 0.0
    assert categorical_similarity(None, "male") is None
    assert categorical_similarity("female", None) is None


def test_location_similarity_normalizes_first():
    assert location_similarity("  SAN  FRANCISCO, CA", "san francisco, ca") == 1.0
    assert location_similarity(None, "boston") is None
    assert normalize_location(" New\tYork  City ") == "new york city"


# ---------------------------------------------------------------------------
# Fuzzy interest overlap
# ---------------------------------------------------------------------------


def test_max_matching_one_to_one():
    # two left vertices both compatible with only right vertex 0: only one
    # can be matched
    assert max_matching_size([0b01, 0b01]) == 1
    assert max_matching_size([0b01, 0b11]) == 2
    assert max_matching_size([0b00, 0b10]) == 1
    assert max_matching_size([]) == 0
    # right-hand vertices are bits of a vocabulary, however high
    assert max_matching_size([1 << 10_000, (1 << 10_000) | 1]) == 2


def test_max_matching_requires_augmenting_paths():
    # greedy assignment of left 0 → right 0 must be undone to fit left 1
    assert max_matching_size([0b11, 0b01]) == 2


def test_max_matching_leaves_nothing_for_the_cyclic_collector():
    # ranking calls this hundreds of thousands of times a run; every object
    # it makes must be freed by reference counting alone
    shapes = [
        [0b01, 0b11],
        [0b11, 0b01],  # needs an augmenting path
        [0b011, 0b001, 0b110],
        [0b0011, 0b0110, 0b1100, 0b0001],  # augments through a chain of three
        [0b111, 0b111, 0b111, 0b111],
        [0, 0b10, 0],
    ]
    gc.collect()
    gc.disable()
    try:
        sizes = [max_matching_size(adjacency) for adjacency in shapes]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sizes == [2, 2, 3, 4, 3, 1]


def test_fuzzy_overlap_counts_each_interest_once():
    left = ["robotics", "robotic"]
    right = ["robotics"]
    # both left entries pass the threshold against the single right entry,
    # but the matching is one-to-one
    assert fuzzy_overlap(left, right, 0.8) == 1


def test_interest_similarity_formula():
    left = {"machine learning", "baking"}
    right = {"machine learning", "chess", "poetry"}
    assert interest_similarity(left, right, 1.0) == 1 / (2 + 3 - 1)


def test_interest_similarity_empty_sets_are_absent():
    assert interest_similarity(set(), {"chess"}) is None
    assert interest_similarity({"chess"}, set()) is None
    assert interest_similarity(set(), set()) is None


def test_interest_similarity_is_symmetric_and_order_free():
    rng = random.Random(5)
    vocab = ["robotics", "robotic", "chess", "chessy", "baking", "poetry", "gardens"]
    for _ in range(100):
        a = rng.sample(vocab, rng.randint(1, 4))
        b = rng.sample(vocab, rng.randint(1, 4))
        forward = interest_similarity(a, b)
        assert forward == interest_similarity(b, a)
        shuffled = a[:]
        rng.shuffle(shuffled)
        assert forward == interest_similarity(shuffled, b)


def test_threshold_is_validated():
    with pytest.raises(ValueError):
        interest_similarity({"a"}, {"b"}, threshold=1.5)
    with pytest.raises(ValueError):
        fuzzy_overlap({"a"}, {"b"}, threshold=-0.1)


def test_matching_count_agrees_with_exhaustive_search():
    rng = random.Random(12)
    vocab = ["robotics", "robotic", "robots", "chess", "chessy", "poetry",
             "poet", "baking", "bakery", "gardens"]
    for _ in range(60):
        left = rng.sample(vocab, rng.randint(0, 5))
        right = rng.sample(vocab, rng.randint(0, 5))
        expected = oracles.exhaustive_matching_size(left, right, 0.8)
        assert fuzzy_overlap(left, right, 0.8) == expected


# ---------------------------------------------------------------------------
# Combined score
# ---------------------------------------------------------------------------


def profile(**kwargs):
    return AttributeProfile(**kwargs)


def test_combined_score_means_present_components():
    student = profile(gender="female", race="Asian", location="dallas, tx",
                      interests={"chess"})
    model = profile(gender="female", race="Black", location="dallas, tx",
                    interests={"chess"})
    breakdown = combined_score(student, model)
    assert breakdown.gender == 1.0
    assert breakdown.race == 0.0
    assert breakdown.location == 1.0
    assert breakdown.interest == 1.0
    assert breakdown.combined == (1.0 + 0.0 + 1.0 + 1.0) / 4
    assert not breakdown.no_signal


def test_combined_score_skips_absent_components():
    student = profile(gender="female", interests={"chess"})
    model = profile(gender="female", race="Asian", interests={"chess"})
    breakdown = combined_score(student, model)
    assert breakdown.race is None
    assert breakdown.location is None
    assert breakdown.combined == (1.0 + 1.0) / 2


def test_combined_score_no_signal_pair():
    breakdown = combined_score(profile(), profile(gender="male"))
    assert breakdown.no_signal
    assert breakdown.combined == 0.0
    assert breakdown.gender is None


def test_combined_score_is_monotone_in_each_component():
    # improving the location string (the only continuous component) while
    # everything else stays fixed never lowers the combined score
    student = profile(gender="female", location="springfield")
    worse = combined_score(student, profile(gender="female", location="shelbyville"))
    better = combined_score(student, profile(gender="female", location="springfield"))
    assert better.combined >= worse.combined


def test_breakdown_round_trip():
    breakdown = combined_score(
        profile(gender="male", interests={"poetry"}),
        profile(gender="male", interests={"poetry", "chess"}),
    )
    assert SimilarityBreakdown.from_dict(breakdown.to_dict()) == breakdown
