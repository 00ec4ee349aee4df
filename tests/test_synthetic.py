"""Synthetic population generator: determinism, planting, and marginals."""

import dataclasses
import itertools
import json

import pytest

import oracles
from stem_match.rolemodels import KEPT_REASONS, default_majors, default_taxonomy, role_model_reason
from stem_match.synthetic import (
    DEFAULT_INTEREST_VOCABULARY,
    SynthConfig,
    SynthError,
    _CONFIG_KEYS,
    generate_population,
    generate_synthetic,
)


def small_config(**overrides):
    defaults = dict(seed=5, n_students=40, n_candidates=120)
    defaults.update(overrides)
    return SynthConfig(**defaults)


def truth_by_id(population):
    return {row["subject_id"]: row for row in population.annotations}


def planted_pairs(population):
    """student id -> planted candidate id, for annotated students."""
    return {row["subject_id"]: row["planted_candidate_id"]
            for row in population.annotations if row.get("planted_candidate_id")}


def test_same_seed_reproduces_the_population_exactly():
    first = generate_population(small_config())
    second = generate_population(small_config())
    assert first.students == second.students
    assert first.candidates == second.candidates
    assert first.annotations == second.annotations


def test_different_seeds_differ():
    first = generate_population(small_config(seed=1))
    second = generate_population(small_config(seed=2))
    assert first.students != second.students


def test_full_planting_gives_every_student_a_partner():
    population = generate_population(small_config(planted_fraction=1.0))
    pairs = planted_pairs(population)
    assert len(pairs) == 40
    assert len(set(pairs.values())) == 40  # injective


def test_no_planting_by_default():
    population = generate_population(small_config())
    assert planted_pairs(population) == {}


def test_planted_candidate_mirrors_student_truth():
    population = generate_population(small_config(planted_fraction=1.0))
    truth = truth_by_id(population)
    candidates = {record.id: record for record in population.candidates}
    for student_id, candidate_id in planted_pairs(population).items():
        s_row, c_row = truth[student_id], truth[candidate_id]
        assert c_row["gender"] == s_row["gender"]
        assert c_row["race"] == s_row["race"]
        assert (c_row["city"], c_row["state"]) == (s_row["city"], s_row["state"])
        assert c_row["is_stem_role_model"] is True
        record = candidates[candidate_id]
        assert role_model_reason(record, default_taxonomy(), default_majors()) in KEPT_REASONS


def test_planted_pairs_survive_missingness():
    config = small_config(
        planted_fraction=1.0,
        missingness={"gender": 0.9, "race": 0.9, "location": 0.9, "interests": 0.9},
    )
    population = generate_population(config)
    candidates = {record.id: record for record in population.candidates}
    for candidate_id in planted_pairs(population).values():
        record = candidates[candidate_id]
        assert record.predictor_outputs  # demographics still present
        assert record.interests_raw or record.skills_raw


def test_candidate_truth_flag_matches_the_predicate():
    population = generate_population(small_config(seed=9))
    truth = truth_by_id(population)
    taxonomy, majors = default_taxonomy(), default_majors()
    for record in population.candidates:
        expected = role_model_reason(record, taxonomy, majors) in KEPT_REASONS
        assert truth[record.id]["is_stem_role_model"] is expected


def test_marginals_are_respected_at_scale():
    config = SynthConfig(seed=3, n_students=10_000, n_candidates=10)
    population = generate_population(config)
    truth = truth_by_id(population)
    rows = [truth[record.id] for record in population.students]
    n = len(rows)
    for gender, want in config.gender_marginals.items():
        got = sum(1 for row in rows if row["gender"] == gender) / n
        assert abs(got - want) < 0.03, gender
    for race, want in config.race_marginals.items():
        got = sum(1 for row in rows if row["race"] == race) / n
        assert abs(got - want) < 0.03, race


def test_missingness_rates_are_approximately_honored():
    config = SynthConfig(
        seed=13, n_students=4000, n_candidates=10,
        missingness={"gender": 0.3, "race": 0.0, "location": 0.5, "interests": 0.2},
    )
    population = generate_population(config)
    students = population.students
    n = len(students)

    def output_rate(attribute):
        present = sum(
            1 for s in students
            if any(o.attribute == attribute and o.value is not None
                   for o in s.predictor_outputs)
        )
        return present / n

    assert abs(output_rate("gender") - 0.7) < 0.05
    assert abs(output_rate("race") - 1.0) < 1e-9
    no_location = sum(1 for s in students if not s.location_raw) / n
    assert abs(no_location - 0.5) < 0.05


def test_label_mix_is_approximately_honored():
    from stem_match.labeling import default_rules, label_corpus

    config = SynthConfig(seed=8, n_students=3000, n_candidates=10)
    population = generate_population(config)
    counts = label_corpus(population.students, default_rules()).counts()
    n = config.n_students
    assert abs(counts["college"] / n - 0.60) < 0.05
    assert abs(counts["non-college"] / n - 0.25) < 0.05
    assert abs(counts["unlabeled"] / n - 0.15) < 0.05


def test_generate_synthetic_writes_three_jsonl_files(tmp_path):
    paths = generate_synthetic(small_config(), tmp_path)
    assert set(paths) == {"students", "candidates", "gt"}
    for path in paths.values():
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines and all(json.loads(line) for line in lines)
    gt_lines = paths["gt"].read_text(encoding="utf-8").splitlines()
    assert len(gt_lines) == 40 + 120


def test_config_validation():
    with pytest.raises(SynthError):
        small_config(n_students=-1)
    with pytest.raises(SynthError):
        small_config(interest_vocabulary=())
    with pytest.raises(SynthError):
        small_config(cities=())
    with pytest.raises(SynthError):
        small_config(gender_marginals={"female": 0.5, "alien": 0.5})
    with pytest.raises(SynthError):
        small_config(gender_marginals={"female": -1.0, "male": 2.0})
    with pytest.raises(SynthError):
        small_config(min_interests=3, max_interests=1)
    with pytest.raises(SynthError):
        small_config(planted_fraction=1.0, n_students=50, n_candidates=10)
    with pytest.raises(SynthError):
        small_config(missingness={"shoe_size": 0.5})
    with pytest.raises(SynthError):
        SynthConfig.from_dict({"seed": 1, "surprise": True})


@pytest.mark.parametrize("key, value", [
    ("n_students", "10"), ("cities", 5), ("interest_vocabulary", 5), ("n_students", 2.5),
    ("missingness", []), ("cities", [["A", "B"]]), ("max_interests", 2.5), ("seed", "x"),
    ("label_mix", [["college", 1]]), ("cities", [["A", "B", float("inf")]]),
    ("interest_vocabulary", ["rock climbing", "chess"]), ("interest_vocabulary", ["chess", ""]),
])
def test_a_config_value_of_the_wrong_type_is_a_synth_error_naming_its_key(key, value):
    with pytest.raises(SynthError) as err:
        SynthConfig.from_dict({key: value})
    what = _CONFIG_KEYS[key][1]
    assert str(err.value) == f"synth config key {key!r} must be {what}, got {value!r}"


def test_every_config_key_has_a_rule():
    assert list(_CONFIG_KEYS) == [f.name for f in dataclasses.fields(SynthConfig)]


def test_a_config_from_json_equals_the_same_config_built_in_code():
    data = {"cities": [["Austin", "TX", 2]], "interest_vocabulary": ["a", "b", "c"]}
    config = SynthConfig.from_dict(data)
    assert config == SynthConfig(cities=(("Austin", "TX", 2.0),),
                                 interest_vocabulary=("a", "b", "c"))
    assert config.cities == (("Austin", "TX", 2.0),)


def test_default_vocabulary_tags_do_not_fuzzy_collide():
    # distinct tags must stay below the matching threshold so a shared
    # interest is only ever a genuinely shared tag
    for a, b in itertools.combinations(DEFAULT_INTEREST_VOCABULARY, 2):
        assert oracles.edit_similarity(a, b) < 0.8, (a, b)
