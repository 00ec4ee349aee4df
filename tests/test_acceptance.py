"""End-to-end checks of the documented behavioral guarantees.

Each test here pins one externally stated guarantee of the package: the
similarity arithmetic, its agreement with independent oracles, recovery of
planted partners at scale, exact accuracy bookkeeping, classifier sanity,
byte-level determinism, and the missing-attribute scoring contract.  One
test per guarantee, so a verbose run reads as a checklist.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from stem_match.attributes import build_profile
from stem_match.classifier import FeatureVector, TrainConfig, cross_validate
from stem_match.matching import (
    GroundTruthAnnotation,
    MatchResult,
    evaluate,
    match_corpus,
)
from stem_match.records import AttributeProfile
from stem_match.similarity import (
    SimilarityBreakdown,
    combined_score,
    fuzzy_overlap,
    interest_similarity,
    lev_similarity,
    levenshtein,
)
from stem_match.synthetic import SynthConfig, generate_population

COLLEGE = "college"
NON_COLLEGE = "non-college"


# ---------------------------------------------------------------------------
# 1. Known similarity ratio for a partial name overlap
# ---------------------------------------------------------------------------


def test_similarity_of_partial_name_overlap_is_thirty_thirty_fifths():
    value = lev_similarity("computersciencelife", "computer science")
    assert abs(value - 30 / 35) < 1e-12
    assert round(value, 2) == 0.86
    best = math.inf
    for _ in range(10):
        start = time.perf_counter()
        lev_similarity("computersciencelife", "computer science")
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3, f"one similarity call took {best * 1e3:.3f} ms"


# ---------------------------------------------------------------------------
# 2. Edit distance agrees with an independent oracle on Unicode pairs
# ---------------------------------------------------------------------------

ALPHABET = (
    "ab cde"          # ASCII with a space
    "éüñç"            # combining-free accents
    "αβγδ"            # Greek
    "汉字日本"          # CJK
    "🙂🚀🔥"           # astral plane
)


def test_edit_distance_matches_brute_force_oracle_on_random_unicode():
    rng = random.Random(2024)
    start = time.perf_counter()
    for case in range(1000):
        a = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))
        assert levenshtein(a, b) == oracles.edit_distance(a, b), (case, a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"1000 oracle comparisons took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. Interest similarity degenerates to classical Jaccard; the fuzzy
#    overlap count agrees with exhaustive matching enumeration
# ---------------------------------------------------------------------------

DISTINCT_WORDS = (
    "apple", "bridge", "cloud", "desert", "engine", "forest",
    "guitar", "harbor", "island", "jungle", "kettle", "lantern",
)

COLLIDING_WORDS = (
    "robotics", "robotic", "robots", "chemistry", "chemist", "chess",
    "cheese", "coding", "codes", "poetry", "poet", "garden", "gardens",
    "astronomy", "astronomer",
)


def test_interest_similarity_degenerates_to_jaccard_and_exhaustive_matching():
    # with threshold 1.0 only identical strings can pair up, so the fuzzy
    # coefficient must collapse to plain set Jaccard
    rng = random.Random(99)
    for _ in range(500):
        left = set(rng.sample(DISTINCT_WORDS, rng.randint(1, 6)))
        right = set(rng.sample(DISTINCT_WORDS, rng.randint(1, 6)))
        got = interest_similarity(left, right, threshold=1.0)
        assert got == oracles.classical_jaccard(left, right), (left, right)

    # on near-colliding vocabularies the one-to-one overlap count must
    # agree with brute-force enumeration of every injective assignment
    rng = random.Random(431)
    for case in range(200):
        left = set(rng.sample(COLLIDING_WORDS, rng.randint(0, 6)))
        right = set(rng.sample(COLLIDING_WORDS, rng.randint(0, 6)))
        got = fuzzy_overlap(left, right, threshold=0.8)
        want = oracles.exhaustive_matching_size(left, right, 0.8)
        assert got == want, (case, sorted(left), sorted(right))


# ---------------------------------------------------------------------------
# 4. match_corpus is identical to a brute-force full sort, ties included
# ---------------------------------------------------------------------------

TIE_GENDERS = ("female", "male", None)
TIE_RACES = ("White", "Asian", None)
TIE_CITIES = ("dallas, tx", "austin, tx", None)
TIE_TAGS = ("robotics", "robotic", "chess", "poetry")


def _tie_prone_profile(rng):
    return AttributeProfile(
        gender=rng.choice(TIE_GENDERS),
        race=rng.choice(TIE_RACES),
        location=rng.choice(TIE_CITIES),
        interests=frozenset(rng.sample(TIE_TAGS, rng.randint(0, 2))),
    )


def test_ranking_is_identical_to_brute_force_full_sort_across_seeds():
    start = time.perf_counter()
    for seed in range(10):
        rng = random.Random(seed)
        candidates = [(f"c{i:03d}", _tie_prone_profile(rng)) for i in range(200)]
        students = [(f"s{s}", _tie_prone_profile(rng)) for s in range(50)]
        results = match_corpus(students, candidates, k=5, threshold=0.8)
        for (student_id, student), got in zip(students, results):
            want = oracles.full_sort_rank(student_id, student, candidates, 5, 0.8)
            assert [cid for cid, _ in got.ranked] == [cid for cid, _ in want], (seed, student_id)
            assert [b for _, b in got.ranked] == [b for _, b in want], (seed, student_id)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"ranking oracle sweep took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 5. Planted partners are recovered from a large synthetic population
# ---------------------------------------------------------------------------


def test_planted_partners_are_recovered_at_scale():
    start = time.perf_counter()
    config = SynthConfig(seed=42, n_students=1000, n_candidates=5000,
                         planted_fraction=1.0)
    population = generate_population(config)
    planted = {row["subject_id"]: row["planted_candidate_id"]
               for row in population.annotations if row.get("planted_candidate_id")}
    assert len(planted) == 1000

    students = [(r.id, build_profile(r)) for r in population.students]
    candidates = [(r.id, build_profile(r)) for r in population.candidates]
    results = match_corpus(students, candidates, k=5)

    in_top5 = sum(
        1 for result in results
        if planted[result.student_id] in (cid for cid, _ in result.ranked)
    )
    at_rank1 = sum(
        1 for result in results
        if result.ranked[0][0] == planted[result.student_id]
    )
    elapsed = time.perf_counter() - start
    assert in_top5 / 1000 >= 0.95, f"planted partner in top-5 for {in_top5}/1000"
    assert at_rank1 / 1000 >= 0.80, f"planted partner at rank 1 for {at_rank1}/1000"
    assert elapsed < 60.0, f"planted-recovery run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 6. Accuracy bookkeeping is exact on a constructed cohort
# ---------------------------------------------------------------------------


def _constructed_cohort():
    annotations = {}
    for cid in ("g1", "g2"):  # correct at city level (and therefore state)
        annotations[cid] = GroundTruthAnnotation(
            subject_id=cid, gender="female", race="Asian",
            city="Dallas", state="TX", is_stem_role_model=True)
    for cid in ("t1", "t2"):  # same state, different city
        annotations[cid] = GroundTruthAnnotation(
            subject_id=cid, gender="female", race="Asian",
            city="Austin", state="TX", is_stem_role_model=True)
    for cid in ("b1", "b2", "b3", "b4", "b5"):  # wrong gender everywhere
        annotations[cid] = GroundTruthAnnotation(
            subject_id=cid, gender="male", race="Asian",
            city="Dallas", state="TX", is_stem_role_model=True)

    breakdown = SimilarityBreakdown(1.0, None, None, None, 1.0, False)

    def result(student_id, candidate_ids):
        return MatchResult(student_id,
                           tuple((cid, breakdown) for cid in candidate_ids))

    plans = (
        (400, ("g1", "g2", "t1", "b1", "b2")),   # city: 2 correct, state: 3
        (440, ("g1", "t1", "b1", "b2", "b3")),   # city: 1 correct, state: 2
        (600, ("t1", "t2", "b1", "b2", "b3")),   # city: 0 correct, state: 2
        (560, ("b1", "b2", "b3", "b4", "b5")),   # nothing correct anywhere
    )
    results = []
    count = 0
    for size, ranked in plans:
        for _ in range(size):
            sid = f"s{count:04d}"
            count += 1
            annotations[sid] = GroundTruthAnnotation(
                subject_id=sid, gender="female", race="Asian",
                city="Dallas", state="TX")
            results.append(result(sid, ranked))
    return results, annotations


def test_accuracy_fractions_are_exact_and_state_dominates_city():
    results, annotations = _constructed_cohort()
    assert len(results) == 2000

    city = evaluate(results, annotations, "city-all", n_max=5)
    state = evaluate(results, annotations, "state-all", n_max=5)

    assert city.accuracy_at(1) == 840 / 2000 == 0.42
    assert city.accuracy_at(2) == 400 / 2000
    assert city.accuracy_at(3) == 0.0
    assert state.accuracy_at(1) == 1440 / 2000
    assert state.accuracy_at(2) == 1440 / 2000
    assert state.accuracy_at(3) == 400 / 2000
    assert state.accuracy_at(4) == 0.0
    for n in range(1, 6):
        assert state.accuracy_at(n) >= city.accuracy_at(n), n


# ---------------------------------------------------------------------------
# 7. Classifier sanity: separable, shuffled, and the retweet ablation
# ---------------------------------------------------------------------------


def _vector(rng, low, high, retweet=None):
    bins = [rng.randint(low, high) for _ in range(3)]
    return FeatureVector(
        emoji_bin=bins[0], hashtag_bin=bins[1], hahalol_bin=bins[2],
        retweet_bin=retweet,
    )


def test_classifier_cv_sanity_on_separable_shuffled_and_ablated_data():
    rng = random.Random(7)
    separable = [_vector(rng, 7, 9) for _ in range(60)] + \
                [_vector(rng, 0, 2) for _ in range(60)]
    labels = [COLLEGE] * 60 + [NON_COLLEGE] * 60
    assert cross_validate(separable, labels, k=10) == 1.0

    shuffle_rng = random.Random(123)
    shuffled = list(labels)
    shuffle_rng.shuffle(shuffled)
    chance = cross_validate(separable, shuffled, k=10)
    assert abs(chance - 0.5) <= 0.1, f"shuffled-label CV accuracy {chance:.3f}"

    # overlapping class distributions plus a label-independent retweet
    # bin: the extra noise dimension can only cost held-out accuracy
    with_retweet, without_retweet = [], []
    for seed in range(20):
        noisy_rng = random.Random(seed)
        vectors = (
            [_vector(noisy_rng, 2, 9, retweet=noisy_rng.randint(0, 9))
             for _ in range(60)]
            + [_vector(noisy_rng, 0, 7, retweet=noisy_rng.randint(0, 9))
               for _ in range(60)]
        )
        noisy_labels = [COLLEGE] * 60 + [NON_COLLEGE] * 60
        config = TrainConfig(seed=seed)
        without_retweet.append(
            cross_validate(vectors, noisy_labels, k=10, config=config))
        with_retweet.append(
            cross_validate(vectors, noisy_labels, k=10,
                           config=TrainConfig(seed=seed, with_retweet=True)))
    mean_with = sum(with_retweet) / 20
    mean_without = sum(without_retweet) / 20
    assert mean_with <= mean_without, (
        f"label-independent retweet feature raised mean CV accuracy "
        f"({mean_without:.4f} -> {mean_with:.4f})"
    )


# ---------------------------------------------------------------------------
# 8. Two from-scratch pipeline runs are byte-identical
# ---------------------------------------------------------------------------


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "stem_match.cli", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_two_pipeline_runs_produce_byte_identical_artifacts(tmp_path):
    synth_config = tmp_path / "synth.json"
    synth_config.write_text(json.dumps({
        "seed": 11, "n_students": 60, "n_candidates": 200,
        "planted_fraction": 0.5,
        "missingness": {"gender": 0.1, "race": 0.1,
                        "location": 0.1, "interests": 0.1},
    }), encoding="utf-8")

    trees = []
    for run in ("one", "two"):
        root = tmp_path / run
        data = root / "data"
        _run_cli("synth", "--config", str(synth_config), "--out-dir", str(data))
        pipeline_config = root / "pipeline.json"
        pipeline_config.write_text(json.dumps({
            "students": str(data / "students.jsonl"),
            "candidates": str(data / "candidates.jsonl"),
            "annotations": str(data / "gt.jsonl"),
            "out_dir": str(root / "out"),
            "cv_folds": 3,
            "survey_url": "https://example.com/survey",
        }), encoding="utf-8")
        _run_cli("pipeline", "--config", str(pipeline_config))
        trees.append(_tree_bytes(root / "out"))

    first, second = trees
    assert first.keys() == second.keys()
    assert any(name.startswith("pages/") for name in first)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


# ---------------------------------------------------------------------------
# 9. Removing an attribute rescales the combined score to the mean of
#    the remaining components
# ---------------------------------------------------------------------------


def test_removing_gender_rescales_combined_score_to_remaining_mean():
    full = AttributeProfile(
        gender="female", race="Asian", location="dallas, tx",
        interests=frozenset({"robotics", "chess"}),
    )
    model = AttributeProfile(
        gender="female", race="Asian", location="austin, tx",
        interests=frozenset({"robotics", "poetry"}),
    )
    with_gender = combined_score(full, model, 0.8)
    assert None not in (with_gender.gender, with_gender.race,
                        with_gender.location, with_gender.interest)
    four = (with_gender.gender + with_gender.race
            + with_gender.location + with_gender.interest)
    assert with_gender.combined == four / 4

    without = combined_score(
        AttributeProfile(gender=None, race=full.race, location=full.location,
                         interests=full.interests),
        model, 0.8)
    assert without.gender is None
    assert (without.race, without.location, without.interest) == (
        with_gender.race, with_gender.location, with_gender.interest)
    expected = (without.race + without.location + without.interest) / 3
    assert without.combined == expected

    # exact fraction sanity: race 1, location (20-6)/20, interest 1/(2+2-1)
    assert Fraction(without.race) == 1
    assert without.location == 14 / 20
    assert without.interest == 1 / 3
    assert without.combined == (1 + 14 / 20 + 1 / 3) / 3

    # the ranking path applies the same contract
    [result] = match_corpus([("s", AttributeProfile(gender=None, race=full.race,
                                                     location=full.location,
                                                     interests=full.interests))],
                            [("m", model)], k=1)
    assert result.ranked[0][1].combined == expected
