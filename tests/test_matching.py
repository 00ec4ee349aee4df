"""Ranking, the candidate index fast path, and accuracy evaluation."""

import functools
import gc
import random
import string

import pytest

import oracles
from stem_match import matching
from stem_match.matching import (
    DEFAULT_TOP10_CITIES,
    LEVELS,
    CandidateIndex,
    GroundTruthAnnotation,
    MatchError,
    MatchResult,
    evaluate,
    load_annotations,
    load_matches,
    match_corpus,
    write_matches,
)
from stem_match.records import AttributeProfile, RecordError, write_jsonl
from stem_match.similarity import SimilarityBreakdown, combined_score, lev_similarity

GENDERS = ("female", "male", None)
RACES = ("White", "Black", "Asian", "Api", "Hispanic", None)
CITIES = ("dallas, tx", "boston, ma", "austin, tx", None)
TAGS = ("robotics", "robotic", "chess", "baking", "poetry", "gardens")


def random_profile(rng):
    interests = frozenset(rng.sample(TAGS, rng.randint(0, 3)))
    return AttributeProfile(
        gender=rng.choice(GENDERS),
        race=rng.choice(RACES),
        location=rng.choice(CITIES),
        interests=interests,
    )


def random_pool(rng, n, prefix):
    return [(f"{prefix}{i:04d}", random_profile(rng)) for i in range(n)]


# ---------------------------------------------------------------------------
# Ranking one student at a time through match_corpus
# ---------------------------------------------------------------------------


def test_rank_matches_full_sort_oracle_small():
    rng = random.Random(7)
    candidates = random_pool(rng, 40, "c")
    for s in range(10):
        student = random_profile(rng)
        expected = oracles.full_sort_rank("s", student, candidates, 5, 0.8)
        [result] = match_corpus([("s", student)], candidates, k=5)
        assert [cid for cid, _ in result.ranked] == [cid for cid, _ in expected]
        for (got_id, got), (_, want) in zip(result.ranked, expected):
            assert got == want, got_id


def test_rank_breaks_ties_by_candidate_id():
    student = AttributeProfile(gender="female")
    twin = AttributeProfile(gender="female")
    candidates = [("c9", twin), ("c1", twin), ("c5", twin)]
    [result] = match_corpus([("s", student)], candidates, k=3)
    assert [cid for cid, _ in result.ranked] == ["c1", "c5", "c9"]


def test_rank_puts_no_signal_candidates_last():
    student = AttributeProfile(gender="female", interests=frozenset({"chess"}))
    scoreless = AttributeProfile(location="nowhere")   # nothing comparable
    weak = AttributeProfile(gender="male")             # comparable but 0.0
    candidates = [("c1", scoreless), ("c2", weak)]
    [result] = match_corpus([("s", student)], candidates, k=2)
    assert [cid for cid, _ in result.ranked] == ["c2", "c1"]
    assert result.ranked[0][1].combined == 0.0
    assert not result.ranked[0][1].no_signal
    assert result.ranked[1][1].no_signal


def test_rank_k_larger_than_pool_returns_everything():
    rng = random.Random(3)
    candidates = random_pool(rng, 4, "c")
    [result] = match_corpus([("s", random_profile(rng))], candidates, k=10)
    assert len(result.ranked) == 4


def test_match_corpus_validates_inputs():
    student = ("s1", AttributeProfile(gender="female"))
    candidate = ("c1", AttributeProfile(gender="female"))
    with pytest.raises(MatchError):
        match_corpus([student], [], k=5)
    with pytest.raises(MatchError):
        match_corpus([student], [candidate], k=0)
    assert match_corpus([], [candidate], k=5) == []


def test_candidate_index_rejects_duplicates_and_bad_threshold():
    profile = AttributeProfile(gender="female")
    with pytest.raises(MatchError):
        CandidateIndex([("c1", profile), ("c1", profile)], 0.8)
    with pytest.raises(MatchError):
        CandidateIndex([("c1", profile)], 1.5)


def test_index_scores_agree_with_pairwise_scoring_exactly():
    # the vectorized index must be bit-identical to scoring pairs one at a
    # time, not merely close; one call scores a block of students, with
    # one column per candidate in id order
    rng = random.Random(21)
    candidates = random_pool(rng, 120, "c")
    rng.shuffle(candidates)
    index = CandidateIndex(candidates, 0.8)
    assert index.ids == sorted(cid for cid, _ in candidates)
    by_id = dict(candidates)
    students = [random_profile(rng) for _ in range(25)]
    combined, no_signal, sims, flags = index.score(students)
    assert combined.shape == no_signal.shape == (25, 120)
    assert flags.shape == (25, 4) and index.present.shape == (4, 120)
    for row, student in enumerate(students):
        for pos, cid in enumerate(index.ids):
            breakdown = combined_score(student, by_id[cid], 0.8)
            assert combined[row, pos] == breakdown.combined, cid
            assert bool(no_signal[row, pos]) == breakdown.no_signal, cid
            for c, name in enumerate(("gender", "race", "location", "interest")):
                want = getattr(breakdown, name)
                assert bool(flags[row, c] & index.present[c, pos]) == (want is not None), (
                    cid, name)
                assert sims[c][row, pos] == (want or 0.0), (cid, name)


def test_a_shuffled_pool_scores_the_same_as_the_pool_in_id_order():
    rng = random.Random(8)
    candidates = random_pool(rng, 50, "c")
    shuffled = candidates[:]
    rng.shuffle(shuffled)
    assert shuffled != candidates
    students = [random_profile(rng) for _ in range(12)]
    index, again = CandidateIndex(candidates, 0.8), CandidateIndex(shuffled, 0.8)
    assert index.ids == again.ids == sorted(index.ids)
    first, second = index.score(students), again.score(students)
    assert (index.present == again.present).all()
    for want, got in zip(first[:2], second[:2]):
        assert (want == got).all()
    for want, got in zip(first[2], second[2]):
        assert (want == got).all()
    assert (first[3] == second[3]).all()


def test_candidate_index_length_is_the_candidate_count():
    rng = random.Random(5)
    candidates = random_pool(rng, 17, "c")
    assert len(CandidateIndex(candidates, 0.8)) == 17


# ---------------------------------------------------------------------------
# Students who share an interest set share one interest component
# ---------------------------------------------------------------------------

# "robotics", "robotic", "robot" and "robots" fuzzy-match one another in
# chains at 0.8, so the words of a three-interest set drawn from them
# compete for the same candidate words in Kuhn's algorithm.
FUZZY_TAGS = ("robotics", "robotic", "robot", "robots", "chess", "baking")
SHARED_SETS = (
    frozenset(),
    frozenset({"chess"}),
    frozenset({"robotics", "robotic", "robot"}),
    frozenset({"robots", "robotic", "chess", "baking"}),
)


def shared_set_population(seed):
    """Candidates with repeated profiles (so scores tie) and students who
    draw their interests from a few sets but differ in gender, race and
    location, shuffled so that input order is not interest-set order, plus
    exact duplicates of some students under new ids."""
    rng = random.Random(seed)
    pool = [
        (f"c{i:03d}", AttributeProfile(
            gender=rng.choice(GENDERS), race=rng.choice(RACES), location=rng.choice(CITIES),
            interests=frozenset(rng.sample(FUZZY_TAGS, rng.randint(0, 4)))))
        for i in range(60)
    ]
    candidates = pool + [(f"d{i:03d}", profile) for i, (_, profile) in enumerate(pool[:20])]
    students = [
        (f"s{i:03d}", AttributeProfile(
            gender=rng.choice(GENDERS), race=rng.choice(RACES), location=rng.choice(CITIES),
            interests=rng.choice(SHARED_SETS)))
        for i in range(48)
    ]
    students += [(f"t{i:03d}", profile) for i, (_, profile) in enumerate(students[:6])]
    rng.shuffle(students)
    return students, candidates


def test_match_corpus_on_shared_interest_sets_equals_the_full_sort_oracle_in_input_order(
        monkeypatch):
    kuhn_calls = []
    kuhn = matching.max_matching_size
    monkeypatch.setattr(matching, "max_matching_size",
                        lambda adj: kuhn_calls.append(adj) or kuhn(adj))
    students, candidates = shared_set_population(13)
    results = match_corpus(students, candidates, k=5)

    assert [r.student_id for r in results] == [sid for sid, _ in students]
    for (student_id, student), got in zip(students, results):
        want = oracles.full_sort_rank(student_id, student, candidates, 5, 0.8)
        assert got.ranked == tuple(want), student_id
    assert kuhn_calls
    assert {s.interests for _, s in students} == set(SHARED_SETS)
    assert any(len({b.combined for _, b in r.ranked}) < len(r.ranked) for r in results)


def test_match_corpus_leaves_nothing_for_the_cyclic_collector():
    # the population has students with three or more interests, so some
    # matchings run Kuhn's algorithm; a reference cycle per call would make
    # the collector run thousands of times on a large pool
    students, candidates = shared_set_population(13)
    assert any(len(s.interests) >= 3 for _, s in students)
    gc.collect()
    gc.disable()
    try:
        results = match_corpus(students, candidates, k=5)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(results) == len(students)


def test_match_corpus_computes_each_distinct_interest_set_once(monkeypatch):
    components, blocks = [], []
    component = CandidateIndex._interest_component
    score = CandidateIndex.score
    monkeypatch.setattr(CandidateIndex, "_interest_component",
                        lambda self, interests: components.append(interests)
                        or component(self, interests))
    monkeypatch.setattr(CandidateIndex, "score",
                        lambda self, students: blocks.append(list(students))
                        or score(self, students))
    students, candidates = shared_set_population(29)
    # five students per block: 54 students make 11 blocks, and some
    # interest set is split across two of them
    monkeypatch.setattr(matching, "_BLOCK_ELEMENTS", 5 * len(candidates) + 4)
    match_corpus(students, candidates, k=5)

    assert [len(block) for block in blocks] == [5] * 10 + [4]
    assert any(before[-1].interests == after[0].interests
               for before, after in zip(blocks, blocks[1:]))
    assert sorted(components, key=sorted) == sorted({s.interests for _, s in students}, key=sorted)


def test_shared_interest_arrays_are_read_only(monkeypatch):
    kept = []
    component = CandidateIndex._interest_component
    monkeypatch.setattr(CandidateIndex, "_interest_component",
                        lambda self, interests: kept.append(component(self, interests))
                        or kept[-1])
    rng = random.Random(2)
    index = CandidateIndex(random_pool(rng, 30, "c"), 0.8)
    for interests in (frozenset({"chess", "robotic"}), frozenset()):
        kept.clear()
        _, _, first, _ = index.score([AttributeProfile(gender="female", interests=interests)])
        _, _, again, _ = index.score([AttributeProfile(race="Asian", interests=interests)])
        assert len(kept) == 1
        assert (again[3][0] == first[3][0]).all()
        with pytest.raises(ValueError):
            kept[0][0] = 1
    with pytest.raises(ValueError):
        index.present[0, 0] = False


# ---------------------------------------------------------------------------
# Blocks of students: rankings equal the oracle whatever the block size
# ---------------------------------------------------------------------------


def tie_population(seed):
    """Many candidates with one profile under shuffled ids, so that equal
    scores straddle the k-th place, plus a few random ones."""
    rng = random.Random(seed)
    ids = [f"c{i:03d}" for i in range(30)]
    rng.shuffle(ids)
    twin = AttributeProfile(gender="female", location="dallas, tx",
                            interests=frozenset({"chess"}))
    candidates = [(cid, twin if i < 20 else random_profile(rng)) for i, cid in enumerate(ids)]
    students = [(f"s{i:02d}", random_profile(rng)) for i in range(8)]
    students += [(f"t{i:02d}", AttributeProfile(gender="female")) for i in range(3)]
    return students, candidates


def few_candidates_population(seed):
    rng = random.Random(seed)
    return random_pool(rng, 9, "s"), random_pool(rng, 3, "c")


def no_signal_population(seed):
    """Students with no attribute at all, among ordinary ones: every
    candidate is no-signal for them."""
    rng = random.Random(seed)
    students = [(f"s{i:02d}", random_profile(rng)) for i in range(4)]
    students += [(f"n{i:02d}", AttributeProfile()) for i in range(5)]
    rng.shuffle(students)
    return students, random_pool(rng, 25, "c")


def unlocated_students_population(seed):
    """No student has a location, so no block does either."""
    rng = random.Random(seed)
    students = [
        (sid, AttributeProfile(gender=p.gender, race=p.race, interests=p.interests))
        for sid, p in random_pool(rng, 9, "s")
    ]
    return students, random_pool(rng, 25, "c")


def unlocated_candidates_population(seed):
    """Students with locations against candidates that have none."""
    rng = random.Random(seed)
    candidates = [
        (cid, AttributeProfile(gender=p.gender, race=p.race, interests=p.interests))
        for cid, p in random_pool(rng, 25, "c")
    ]
    students = [(f"s{i:02d}", AttributeProfile(location=rng.choice(CITIES[:3])))
                for i in range(6)]
    return students, candidates


# "robotic", "robot" and "robots" all fuzzy-match one another at 0.8.
WIDE_SETS = ({"robotic"}, {"robot"}, {"robot", "robots"}, {"robots", "robotic"})


def wide_vocabulary_population(seed):
    """A pool over 240 random nine-letter words, then candidates holding
    "robotic", "robot" or "robots" last in id order, so candidate masks
    carry bits far above 64; students with one or two interests, some of
    whom hit one candidate word with both of theirs, as "robot" and
    "robots" both hit "robotic"."""
    rng = random.Random(seed)
    words = set()
    while len(words) < 240:
        words.add("".join(rng.choices(string.ascii_lowercase, k=9)))
    words = sorted(words)
    rng.shuffle(words)
    sets = [words[i:i + 4] for i in range(0, 240, 4)]
    sets += [{"robotic"}, {"robotic", words[0]}, {"robot", "robots"}, {"robots", words[1]}]
    candidates = [
        (f"c{i:03d}", AttributeProfile(gender=rng.choice(GENDERS), race=rng.choice(RACES),
                                       interests=frozenset(interests)))
        for i, interests in enumerate(sets)
    ]
    students = [
        (f"s{i:02d}", AttributeProfile(
            gender=rng.choice(GENDERS), location=rng.choice(CITIES),
            interests=frozenset(rng.choice(WIDE_SETS) if i % 2
                                else rng.sample(words[:8] + ["robot"], 1 + i % 4 // 2))))
        for i in range(16)
    ]
    return students, candidates


POPULATIONS = (
    shared_set_population,
    tie_population,
    few_candidates_population,
    no_signal_population,
    unlocated_students_population,
    unlocated_candidates_population,
    wide_vocabulary_population,
)


@functools.lru_cache(maxsize=None)
def oracle_rankings(population, k):
    """The full-sort oracle's top k for every student, in input order; the
    same for every block size, so computed once per population and k."""
    students, candidates = population(17)
    return [tuple(oracles.full_sort_rank(sid, s, candidates, k, 0.8)) for sid, s in students]


@pytest.mark.parametrize("population", POPULATIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("per_block", [1, 2, 3, "n > budget"])
def test_block_rankings_equal_the_full_sort_oracle_in_input_order(
        monkeypatch, population, per_block):
    students, candidates = population(17)
    n = len(candidates)
    budget = n // 2 if per_block == "n > budget" else per_block * n
    monkeypatch.setattr(matching, "_BLOCK_ELEMENTS", budget)
    for k in (1, 5, 200):
        results = match_corpus(students, candidates, k=k)
        assert [r.student_id for r in results] == [sid for sid, _ in students]
        for (student_id, _), got, want in zip(students, results, oracle_rankings(population, k)):
            assert got.ranked == want, (student_id, k)


def test_block_populations_hold_the_cases_they_are_named_for():
    def sort_key(breakdown):
        return breakdown.no_signal, -breakdown.combined

    students, candidates = tie_population(17)
    full = [oracles.full_sort_rank(sid, s, candidates, len(candidates), 0.8)
            for sid, s in students]
    assert any(sort_key(ranked[4][1]) == sort_key(ranked[5][1]) for ranked in full)

    students, candidates = no_signal_population(17)
    assert any(all(combined_score(s, c, 0.8).no_signal for _, c in candidates)
               for _, s in students)
    assert any(not combined_score(s, c, 0.8).no_signal
               for _, s in students for _, c in candidates)

    students, _ = unlocated_students_population(17)
    assert all(s.location is None for _, s in students)
    students, candidates = unlocated_candidates_population(17)
    assert all(s.location is not None for _, s in students)
    assert all(c.location is None for _, c in candidates)

    students, candidates = wide_vocabulary_population(17)
    assert len({word for _, c in candidates for word in c.interests}) >= 200
    assert CandidateIndex(candidates, 0.8)._vocab_words.index("robotic") > 200
    assert {len(s.interests) for _, s in students} == {1, 2}
    hits = [[{word for word in c.interests if lev_similarity(interest, word) >= 0.8}
             for interest in sorted(s.interests)] for _, s in students for _, c in candidates]
    assert [{"robotic"}, {"robotic"}] in hits
    assert [{"robot", "robots"}] in hits


def test_match_result_rejects_duplicate_candidates():
    breakdown = SimilarityBreakdown(1.0, None, None, None, 1.0, False)
    with pytest.raises(MatchError):
        MatchResult("s1", (("c1", breakdown), ("c1", breakdown)))


def test_match_file_round_trip(tmp_path):
    rng = random.Random(11)
    students = random_pool(rng, 6, "s")
    candidates = random_pool(rng, 30, "c")
    results = match_corpus(students, candidates, k=5)
    path = tmp_path / "matches.jsonl"
    write_matches(path, results)
    assert load_matches(path) == results


@pytest.mark.parametrize("fields, message", [
    pytest.param({"combined": 10 ** 400, "no_signal": False},
                 "similarity 'combined' does not fit a float", id="huge-combined"),
    pytest.param({"gender": 10 ** 400, "combined": 0.5, "no_signal": False},
                 "similarity 'gender' does not fit a float", id="huge-gender"),
    pytest.param({"race": -5, "combined": 0.5, "no_signal": False},
                 "similarity 'race' must lie in [0, 1], got -5.0", id="negative-race"),
    pytest.param({"interest": 1.5, "combined": 0.5, "no_signal": False},
                 "similarity 'interest' must lie in [0, 1], got 1.5", id="interest-above-one"),
    pytest.param({"location": 0.5, "combined": 1.5, "no_signal": False},
                 "similarity 'combined' must lie in [0, 1], got 1.5", id="combined-above-one"),
    pytest.param({"gender": 1.0, "combined": 1.0, "no_signal": True},
                 "'no_signal' must be true exactly when every component is null",
                 id="no-signal-beside-a-component"),
    pytest.param({"combined": 0.0, "no_signal": False},
                 "'no_signal' must be true exactly when every component is null",
                 id="signal-without-a-component"),
    pytest.param({"gender": 1.0, "combined": 0.2, "no_signal": False},
                 "similarity 'combined' must be 1.0, the mean of the present components "
                 "(0.0 with none), got 0.2", id="combined-not-the-mean"),
    pytest.param({"combined": 0.7, "no_signal": True},
                 "similarity 'combined' must be 0.0, the mean of the present components "
                 "(0.0 with none), got 0.7", id="no-signal-with-a-combined-score"),
])
def test_a_combined_score_too_large_for_a_float_is_a_bad_row_naming_file_and_line(
        tmp_path, fields, message):
    # also every other similarity outside [0, 1] or too large for a float,
    # a no_signal flag that disagrees with the components, and a combined
    # score that is not the mean of the present components
    path = tmp_path / "matches.jsonl"
    write_jsonl(path, [{"student_id": "s1", "ranked": []},
                       {"student_id": "s2", "ranked": [{"candidate_id": "c1", **fields}]}])
    with pytest.raises(RecordError) as err:
        load_matches(path)
    assert str(err.value) == f"{path} line 2: {message}"


# ---------------------------------------------------------------------------
# Ground truth and evaluation
# ---------------------------------------------------------------------------


def annotation(subject_id, gender="female", race="Asian", city="Dallas",
               state="TX", role_model=None, planted=None):
    return GroundTruthAnnotation(
        subject_id=subject_id, gender=gender, race=race, city=city,
        state=state, is_stem_role_model=role_model, planted_candidate_id=planted,
    )


def result_for(student_id, candidate_ids):
    breakdown = SimilarityBreakdown(1.0, None, None, None, 1.0, False)
    return MatchResult(student_id, tuple((cid, breakdown) for cid in candidate_ids))


def test_annotation_round_trip_and_validation():
    note = annotation("s1", role_model=True, planted="c3")
    assert GroundTruthAnnotation.from_dict({
        "subject_id": "s1", "gender": "female", "race": "Asian",
        "city": "Dallas", "state": "TX", "is_stem_role_model": True,
        "planted_candidate_id": "c3",
    }) == note
    with pytest.raises(MatchError):
        GroundTruthAnnotation.from_dict({"subject_id": "s1", "is_stem_role_model": "yes"})
    with pytest.raises(MatchError):
        GroundTruthAnnotation(subject_id="s1", city="  ")


def test_load_annotations_rejects_duplicates(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text(
        '{"subject_id": "s1"}\n{"subject_id": "s1"}\n', encoding="utf-8"
    )
    with pytest.raises(RecordError) as err:
        load_annotations(path)
    assert f"{path} line 2: duplicate id 's1'" in str(err.value)


def is_correct(student, candidate, level):
    """Whether ``evaluate`` counts ``candidate`` as a correct match for a
    one-student cohort that ranks it alone."""
    annotations = {student.subject_id: student, candidate.subject_id: candidate}
    report = evaluate([result_for(student.subject_id, [candidate.subject_id])], annotations,
                      level, n_max=1)
    return report.accuracy_at(1) == 1.0


def test_evaluate_needs_all_conditions_for_a_correct_match():
    student = annotation("s1")
    good = annotation("c1", role_model=True)
    assert is_correct(student, good, "city-all")
    # every single deviation breaks it
    assert not is_correct(student, annotation("c1", role_model=False), "city-all")
    assert not is_correct(student, annotation("c1", role_model=None), "city-all")
    assert not is_correct(student, annotation("c1", role_model=True, gender="male"), "city-all")
    assert not is_correct(student, annotation("c1", role_model=True, race="White"), "city-all")
    assert not is_correct(student, annotation("c1", role_model=True, city="Austin"), "city-all")


def test_evaluate_counts_absent_fields_as_incorrect():
    student = annotation("s1", gender=None)
    candidate = annotation("c1", role_model=True, gender=None)
    assert not is_correct(student, candidate, "city-all")


def test_state_level_compares_state_instead_of_city():
    student = annotation("s1", city="Dallas", state="TX")
    candidate = annotation("c1", role_model=True, city="Austin", state="TX")
    assert not is_correct(student, candidate, "city-all")
    assert is_correct(student, candidate, "state-all")


def test_place_comparison_is_normalized():
    student = annotation("s1", city="  DALLAS ")
    candidate = annotation("c1", role_model=True, city="dallas")
    assert is_correct(student, candidate, "city-all")


def test_evaluate_counts_students_with_at_least_n_correct():
    annotations = {
        "s1": annotation("s1"),
        "s2": annotation("s2"),
        "s3": annotation("s3", city="Seattle", state="WA"),
        "good1": annotation("good1", role_model=True),
        "good2": annotation("good2", role_model=True),
        "bad": annotation("bad", role_model=False),
    }
    results = [
        result_for("s1", ["good1", "good2", "bad"]),  # two correct
        result_for("s2", ["good1", "bad"]),           # one correct
        result_for("s3", ["good1"]),                  # zero (city mismatch)
    ]
    report = evaluate(results, annotations, "city-all", n_max=3)
    assert report.cohort_size == 3
    assert report.accuracy_at(1) == 2 / 3
    assert report.accuracy_at(2) == 1 / 3
    assert report.accuracy_at(3) == 0.0


def test_evaluate_ranked_candidate_without_annotation_is_not_correct():
    annotations = {"s1": annotation("s1"), "known": annotation("known", role_model=True)}
    report = evaluate([result_for("s1", ["mystery", "known"])], annotations, "city-all")
    assert report.accuracy_at(1) == 1.0
    assert report.accuracy_at(2) == 0.0


def test_evaluate_requires_student_annotations():
    with pytest.raises(MatchError) as err:
        evaluate([result_for("s9", ["c1"])], {}, "city-all")
    assert "s9" in str(err.value)


def test_evaluate_top10_filters_cohort_by_annotated_city():
    annotations = {
        "s1": annotation("s1", city="Dallas"),            # on the list
        "s2": annotation("s2", city="Walla Walla"),       # not on it
        "good1": annotation("good1", role_model=True),
    }
    results = [result_for("s1", ["good1"]), result_for("s2", ["good1"])]
    report = evaluate(results, annotations, "city-top10")
    assert report.cohort_size == 1
    assert report.accuracy_at(1) == 1.0
    assert "Dallas" in DEFAULT_TOP10_CITIES


def test_evaluate_counts_no_signal_students_separately():
    silent = SimilarityBreakdown(None, None, None, None, 0.0, True)
    results = [
        MatchResult("s1", (("good1", silent),)),
        result_for("s2", ["good1"]),
    ]
    annotations = {
        "s1": annotation("s1"),
        "s2": annotation("s2"),
        "good1": annotation("good1", role_model=True),
    }
    report = evaluate(results, annotations, "city-all")
    assert report.no_signal_students == 1
    assert report.cohort_size == 2  # still part of the cohort


def test_evaluate_empty_cohort_reports_zeros():
    annotations = {"s1": annotation("s1", city="Nowhere")}
    report = evaluate([result_for("s1", [])], annotations, "city-top10")
    assert report.cohort_size == 0
    assert all(report.accuracy_at(n) == 0.0 for n in range(1, 6))


def test_state_accuracy_dominates_city_accuracy_on_random_data():
    rng = random.Random(17)
    cities = [("Dallas", "TX"), ("Austin", "TX"), ("Boston", "MA"), ("Miami", "FL")]
    annotations = {}
    results = []
    for i in range(40):
        city, state = rng.choice(cities)
        annotations[f"s{i}"] = annotation(f"s{i}", gender=rng.choice(("female", "male")),
                                          city=city, state=state)
    for j in range(60):
        city, state = rng.choice(cities)
        annotations[f"c{j}"] = annotation(f"c{j}", gender=rng.choice(("female", "male")),
                                          city=city, state=state,
                                          role_model=rng.random() < 0.7)
    for i in range(40):
        picks = rng.sample(range(60), 5)
        results.append(result_for(f"s{i}", [f"c{j}" for j in picks]))
    city_report = evaluate(results, annotations, "city-all")
    state_report = evaluate(results, annotations, "state-all")
    for n in range(1, 6):
        assert state_report.accuracy_at(n) >= city_report.accuracy_at(n)


def test_evaluate_equals_the_pairwise_oracle_on_random_annotations():
    rng = random.Random(29)
    # Mostly one value in mixed case and spacing, so that many pairs match.
    genders = ("female",) * 6 + ("male", None)
    races = ("Asian",) * 6 + ("White", None)
    cities = ("Dallas", "  dallas ", "DALLAS\t", "dallas", "New  York   City", "Walla Walla", None)
    states = ("TX", " tx", "Tx  ", "MA", None)

    def random_annotation(subject_id, role_model=None):
        return annotation(subject_id, gender=rng.choice(genders), race=rng.choice(races),
                          city=rng.choice(cities), state=rng.choice(states),
                          role_model=role_model)

    annotations = {f"s{i}": random_annotation(f"s{i}") for i in range(80)}
    annotations.update(
        (f"c{j}", random_annotation(f"c{j}", rng.choice((True, True, False, None))))
        for j in range(12)
    )
    silent = SimilarityBreakdown(None, None, None, None, 0.0, True)
    scored = SimilarityBreakdown(1.0, None, None, None, 1.0, False)
    results = [  # c12..c14 are ranked but have no annotation row
        MatchResult(f"s{i}", tuple((f"c{j}", rng.choice((silent, scored)))
                                   for j in rng.sample(range(15), rng.randint(0, 5))))
        for i in range(80)
    ]
    for level in LEVELS:
        report = evaluate(results, annotations, level)
        assert (report.cohort_size, report.accuracies, report.no_signal_students) == \
            oracles.evaluation(results, annotations, level, DEFAULT_TOP10_CITIES), level
    assert any(evaluate(results, annotations, level).accuracy_at(2) > 0 for level in LEVELS)
    # the top-10 levels apply the rule of their -all level to a smaller cohort
    for level in ("city-all", "state-all"):
        for result in results:
            student = annotations[result.student_id]
            for cid, _ in result.ranked:
                if cid in annotations:
                    assert is_correct(student, annotations[cid], level) == \
                        oracles.correct_match(student, annotations[cid], level), (level, cid)


def test_levels_are_the_four_documented_ones():
    assert LEVELS == ("city-all", "state-all", "city-top10", "state-top10")
    with pytest.raises(MatchError):
        evaluate([], {}, "galaxy-all")
