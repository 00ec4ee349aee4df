"""Record validation and JSONL ingestion."""

import json
import math
import shutil
import tracemalloc
from operator import attrgetter

import pytest

from stem_match import records
from stem_match.attributes import load_profiles
from stem_match.labeling import default_rules, load_rules, read_labels
from stem_match.matching import MatchError, load_annotations, load_matches
from stem_match.pipeline import identify, load_predicted, load_rolemodels
from stem_match.rolemodels import (REASON_UNKNOWN, default_majors, default_taxonomy,
                                   load_majors, load_taxonomy)
from stem_match.records import (
    DATA_DIR,
    MAX_TWEETS,
    AttributeProfile,
    CandidateRecord,
    LoadError,
    PredictorOutput,
    RecordError,
    StudentRecord,
    load_candidates,
    load_students,
    read_jsonl,
    write_jsonl,
)
from stem_match.synthetic import SynthConfig, generate_synthetic


def student_row(**overrides):
    row = {
        "id": "s1",
        "tweets": ["hello world"],
        "bio": "just here",
        "display_name": "Sam",
        "location_raw": "Austin, TX",
        "predictor_outputs": [],
    }
    row.update(overrides)
    return row


def candidate_row(**overrides):
    row = {
        "id": "c1",
        "full_name": "Casey Ruiz",
        "industry": "Biotechnology",
        "education_majors": ["Biology"],
        "interests_raw": ["genetics"],
        "skills_raw": [],
        "location_raw": "Boston, MA",
        "predictor_outputs": [],
    }
    row.update(overrides)
    return row


# ---------------------------------------------------------------------------
# PredictorOutput
# ---------------------------------------------------------------------------


def test_predictor_output_accepts_known_sources_and_values():
    out = PredictorOutput("name-gender", "gender", "female", 0.97)
    assert out.value == "female"
    out = PredictorOutput("face", "race", "Hispanic", 0.5)
    assert out.accuracy == 0.5


def test_predictor_output_rejects_unknown_source():
    with pytest.raises(RecordError):
        PredictorOutput("tarot", "gender", "female", 0.9)


def test_predictor_output_rejects_unknown_attribute():
    with pytest.raises(RecordError):
        PredictorOutput("face", "age", "old", 0.9)


def test_predictor_output_rejects_value_outside_vocabulary():
    with pytest.raises(RecordError):
        PredictorOutput("name-gender", "gender", "Female ", 0.9)
    with pytest.raises(RecordError):
        PredictorOutput("name-demographics", "race", "white", 0.9)


def test_predictor_output_null_value_requires_null_accuracy():
    # a predictor that abstains reports neither a value nor an accuracy
    out = PredictorOutput("face", "gender", None, None)
    assert out.value is None and out.accuracy is None
    with pytest.raises(RecordError):
        PredictorOutput("face", "gender", None, 0.7)
    with pytest.raises(RecordError):
        PredictorOutput("face", "gender", "male", None)


def test_predictor_output_accuracy_range():
    with pytest.raises(RecordError):
        PredictorOutput("face", "gender", "male", 1.5)
    with pytest.raises(RecordError):
        PredictorOutput("face", "gender", "male", -0.1)


def test_an_accuracy_too_large_for_a_float_is_a_record_error(tmp_path):
    with pytest.raises(RecordError, match="^accuracy does not fit a float$"):
        StudentRecord.from_dict(student_row(predictor_outputs=[output_row(accuracy=-10 ** 400)]))
    path = tmp_path / "rolemodels.jsonl"
    write_candidates(path, [output_row()], [output_row(accuracy=10 ** 400)])
    with pytest.raises(RecordError) as err:
        load_rolemodels(path)
    assert str(err.value) == f"{path} line 2: accuracy does not fit a float"


def test_predictor_output_round_trip():
    out = PredictorOutput("name-demographics", "race", "Api", 0.66)
    record = StudentRecord.from_dict(student_row(predictor_outputs=[out.to_dict()]))
    assert record.predictor_outputs == (out,)


# ---------------------------------------------------------------------------
# StudentRecord / CandidateRecord
# ---------------------------------------------------------------------------


def test_student_requires_id():
    with pytest.raises(RecordError):
        StudentRecord(id="", tweets=("hi",))


def test_student_with_no_tweets_needs_a_bio():
    with pytest.raises(RecordError):
        StudentRecord(id="s1", tweets=(), bio="   ")
    record = StudentRecord(id="s1", tweets=(), bio="proud parent")
    assert record.bio == "proud parent"


def test_student_tweet_cap_keeps_most_recent():
    tweets = [f"tweet {i}" for i in range(MAX_TWEETS + 25)]
    record = StudentRecord.from_dict(student_row(tweets=tweets))
    assert len(record.tweets) == MAX_TWEETS
    # lists are chronological, so the cap keeps the tail
    assert record.tweets[0] == "tweet 25"
    assert record.tweets[-1] == f"tweet {MAX_TWEETS + 24}"


def test_student_round_trip():
    record = StudentRecord.from_dict(student_row())
    assert StudentRecord.from_dict(record.to_dict()) == record


def test_candidate_requires_location():
    with pytest.raises(RecordError):
        CandidateRecord(id="c1", location_raw="  ")


def test_candidate_round_trip():
    record = CandidateRecord.from_dict(candidate_row())
    assert CandidateRecord.from_dict(record.to_dict()) == record


@pytest.mark.parametrize("second", [{"id": "s1", "college": "true"}, {"id": "s1", "college": 1},
                                    {"id": "s1", "college": None}, {"id": "s1"}],
                         ids=["string", "number", "null", "missing"])
def test_a_prediction_whose_college_is_not_a_boolean_is_an_error_naming_file_and_line(
        tmp_path, second):
    path = tmp_path / "predicted.jsonl"
    write_jsonl(path, [{"id": "s0", "college": True}, second])
    with pytest.raises(RecordError) as err:
        load_predicted(path)
    assert str(err.value) == (
        f"{path} line 2: field 'college' must be true or false, got {second.get('college')!r}")


# ---------------------------------------------------------------------------
# JSONL loading
# ---------------------------------------------------------------------------


def test_load_students_reports_bad_lines_and_keeps_good_ones(tmp_path):
    path = tmp_path / "students.jsonl"
    lines = [
        '{"id": "s1", "tweets": ["a"]}',
        "{not json",
        '{"id": "", "tweets": ["a"]}',
        "[1, 2]",
        '{"id": "s2", "tweets": ["b"]}',
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = load_students(path)
    assert [r.id for r in result.records] == ["s1", "s2"]
    assert sorted(e.line for e in result.errors) == [2, 3, 4]
    for error in result.errors:
        assert error.message


def test_load_students_duplicate_ids_keep_first(tmp_path):
    path = tmp_path / "students.jsonl"
    path.write_text(
        '{"id": "s1", "tweets": ["first"]}\n{"id": "s1", "tweets": ["second"]}\n',
        encoding="utf-8",
    )
    result = load_students(path)
    assert len(result.records) == 1
    assert result.records[0].tweets == ("first",)
    assert len(result.errors) == 1 and result.errors[0].line == 2


def test_load_students_missing_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        load_students(tmp_path / "nope.jsonl")


def test_an_old_unknown_industry_key_is_ignored_by_every_candidate_reader(tmp_path):
    # Candidate and role-model files may carry an ``unknown_industry`` key; no
    # reader uses it, since the role-model filter alone decides an unknown industry.
    rows = [candidate_row(), candidate_row(id="c2", industry="Basket Weaving"),
            candidate_row(id="c3", industry="Computer Software")]
    plain, flagged = tmp_path / "plain.jsonl", tmp_path / "flagged.jsonl"
    write_jsonl(plain, rows)
    write_jsonl(flagged, [{**row, "unknown_industry": flag}
                          for row, flag in zip(rows, (True, False, "yes"))])
    want = load_candidates(plain)
    got = load_candidates(flagged)
    assert not got.errors and got.records == want.records
    taxonomy, majors = default_taxonomy(), default_majors()
    outputs = {}
    for name, loaded in (("plain", want), ("flagged", got)):
        outputs[name] = tmp_path / f"{name}-rolemodels.jsonl"
        result = identify(loaded.records, taxonomy, majors, outputs[name])
        assert result.counts[REASON_UNKNOWN] == 1
        assert [r.id for r in result.role_models] == ["c1", "c3"]
    assert outputs["flagged"].read_bytes() == outputs["plain"].read_bytes()
    assert b"unknown_industry" not in outputs["plain"].read_bytes()
    assert load_rolemodels(flagged) == want.records
    # identify's rows carry the reason each was kept, which no reader uses either
    assert load_rolemodels(outputs["plain"]) == [want.records[0], want.records[2]]


# The lenient loaders, each with its row maker and a builder that reads the
# same rows through ``read_jsonl``.
LENIENT_LOADERS = {
    "load_students": (load_students, student_row, StudentRecord.from_dict),
    "load_candidates": (load_candidates, candidate_row, CandidateRecord.from_dict),
}

# Each makes, from a row maker, one line that every reader rejects.
BAD_LINES = {
    "malformed-json": lambda row: "{broken",
    "not-an-object": lambda row: "[1, 2]",
    "wrongly-typed-field": lambda row: json.dumps(row(id="c", location_raw=5)),
    "empty-id": lambda row: json.dumps(row(id="")),
    "repeated-id": lambda row: json.dumps(row(id="a", location_raw="Waco, TX")),
    "5000-digit-integer": lambda row: json.dumps(row(id="c"))[:-1] + ', "n": ' + "9" * 5000 + "}",
    "400-digit-accuracy": lambda row: json.dumps(
        row(id="c", predictor_outputs=[output_row(accuracy=10 ** 400)])),
}


@pytest.mark.parametrize("bad_line", BAD_LINES)
@pytest.mark.parametrize("loader", LENIENT_LOADERS)
def test_a_lenient_loader_skips_a_bad_row_with_the_strict_readers_message(
        tmp_path, loader, bad_line):
    load, row, build = LENIENT_LOADERS[loader]
    path = tmp_path / "rows.jsonl"
    lines = [json.dumps(row(id="a")), "", BAD_LINES[bad_line](row), json.dumps(row(id="b"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_jsonl(path, build, key=attrgetter("id"))
    prefix = f"{path} line 3: "
    assert str(err.value).startswith(prefix)
    result = load(path)
    assert [record.id for record in result.records] == ["a", "b"]
    assert result.errors == [LoadError(3, str(err.value).removeprefix(prefix))]


def test_the_lenient_loaders_do_not_read_through_read_jsonl(tmp_path, monkeypatch):
    # A traced run adds the rows of every read_jsonl call to those of the
    # lenient loaders, so a lenient load through it would count rows twice.
    students, candidates = tmp_path / "students.jsonl", tmp_path / "candidates.jsonl"
    write_jsonl(students, [student_row()])
    write_jsonl(candidates, [candidate_row()])

    def refuse(*args, **kwargs):
        raise AssertionError("read_jsonl called")

    monkeypatch.setattr(records, "read_jsonl", refuse)
    assert [r.id for r in load_students(students).records] == ["s1"]
    assert [r.id for r in load_candidates(candidates).records] == ["c1"]


def test_write_then_read_jsonl_round_trips(tmp_path):
    rows = [{"id": "a", "n": 1}, {"id": "b", "text": "héllo 🙂"}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    assert read_jsonl(path) == rows
    write_jsonl(path, iter(rows[1:]))
    assert read_jsonl(path) == rows[1:]
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("error", [Interrupted, KeyboardInterrupt])
def test_a_write_that_raises_midway_leaves_the_old_file_and_no_temp_file(tmp_path, error):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"id": "old"}])
    before = path.read_bytes()

    def rows():
        yield {"id": "new"}
        raise error("stopped between rows")

    with pytest.raises(error):
        write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]
    with pytest.raises(error):
        write_jsonl(tmp_path / "fresh.jsonl", rows())
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_read_jsonl_raises_on_malformed_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
    with pytest.raises(RecordError) as err:
        read_jsonl(path)
    assert str(err.value).startswith(f"{path} line 2: invalid JSON")


class OddRow(ValueError):
    pass


def test_read_jsonl_builds_one_item_per_row_and_keeps_the_error_type(tmp_path):
    def build(row):
        if row["n"] < 0:
            raise OddRow("negative n")
        return row["n"] * 10

    path = tmp_path / "rows.jsonl"
    path.write_text('{"n": 1}\n\n{"n": 2}\n', encoding="utf-8")
    assert read_jsonl(path, build) == [10, 20]
    path.write_text('{"n": 1}\n\n{"n": -2}\n', encoding="utf-8")
    with pytest.raises(OddRow) as err:
        read_jsonl(path, build)
    assert str(err.value) == f"{path} line 3: negative n"


# Every strict loader, each with one row it accepts and one valid JSON
# object it rejects: a duplicate id, a wrongly typed field or an invalid
# record.  ``read_jsonl`` is given a row builder, since on its own it
# accepts every object.
STRICT_LOADERS = {
    "read_jsonl": (lambda path: read_jsonl(path, AttributeProfile.from_dict),
                   '{"id": "a"}', '{"gender": "FEMALE"}'),
    "read_labels": (read_labels, '{"id": "a", "label": "college"}',
                    '{"id": "b", "label": "maybe"}'),
    "load_rules": (load_rules, '{"pattern": "x", "label": "college", "description": "x"}',
                   '{"pattern": "(", "label": "college", "description": "y"}'),
    "load_taxonomy": (load_taxonomy, '{"industry": "A", "group": "STEM"}',
                      '{"industry": " a ", "group": "STEM"}'),
    "load_majors": (load_majors, '{"major": "Physics"}',
                    '{"major": "Astronomy", "aliases": ["PHYSICS"]}'),
    "load_profiles": (load_profiles, '{"id": "a"}', '{"id": "a"}'),
    "load_annotations": (load_annotations, '{"subject_id": "a"}', '{"subject_id": "a"}'),
    "load_matches": (load_matches, '{"student_id": "a", "ranked": []}',
                     '{"student_id": "b", "ranked": [[1]]}'),
    "load_rolemodels": (load_rolemodels, json.dumps(candidate_row()),
                        json.dumps(candidate_row(id="c2", location_raw=""))),
}


@pytest.mark.parametrize("bad_line", ["{broken", "[1, 2]", pytest.param(None, id="invalid-row")])
@pytest.mark.parametrize("loader", STRICT_LOADERS)
def test_every_strict_loader_names_the_file_and_line_of_a_bad_line(tmp_path, loader, bad_line):
    load, good_line, invalid_row = STRICT_LOADERS[loader]
    path = tmp_path / "rows.jsonl"
    path.write_text(good_line + "\n", encoding="utf-8")
    load(path)
    path.write_text(f"\n{good_line}\n{bad_line or invalid_row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load(path)
    assert f"{path} line 3" in str(err.value)


# Every strict loader of rows that carry an id, each with two rows that
# differ in everything but the id "a".
KEYED_LOADERS = {
    "read_labels": (read_labels, '{"id": "a", "label": "college"}',
                    '{"id": "a", "label": "non-college"}'),
    "load_predicted": (load_predicted, '{"id": "a", "college": true}',
                       '{"id": "a", "college": false}'),
    "load_profiles": (load_profiles, '{"id": "a"}', '{"id": "a", "gender": "female"}'),
    "load_annotations": (load_annotations, '{"subject_id": "a"}',
                         '{"subject_id": "a", "city": "Austin"}'),
    "load_matches": (load_matches, '{"student_id": "a", "ranked": []}',
                     json.dumps({"student_id": "a", "ranked": [
                         {"candidate_id": "c1", "gender": 0.5, "combined": 0.5, "no_signal": False}]})),
    "load_rolemodels": (load_rolemodels, json.dumps(candidate_row(id="a")),
                        json.dumps(candidate_row(id="a", industry="Physics"))),
}


@pytest.mark.parametrize("loader", KEYED_LOADERS)
def test_every_keyed_strict_loader_rejects_a_repeated_id_naming_file_and_line(tmp_path, loader):
    load, first, second = KEYED_LOADERS[loader]
    path = tmp_path / "rows.jsonl"
    path.write_text(f"{first}\n", encoding="utf-8")
    load(path)
    path.write_text(f"{first}\n{second}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load(path)
    assert f"{path} line 2: duplicate id 'a'" in str(err.value)


@pytest.mark.parametrize("loader", KEYED_LOADERS)
def test_every_keyed_strict_loader_rejects_an_empty_id_naming_file_and_line(tmp_path, loader):
    load, first, _ = KEYED_LOADERS[loader]
    path = tmp_path / "rows.jsonl"
    path.write_text(first.replace('"a"', '""') + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load(path)
    assert f"{path} line 1: " in str(err.value)


def test_read_jsonl_without_a_key_keeps_every_row(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "a"}\n{"id": "a"}\n', encoding="utf-8")
    assert read_jsonl(path) == [{"id": "a"}, {"id": "a"}]


def test_bundled_data_loads_the_same_as_a_copy_given_as_an_override(tmp_path):
    for name in ("rules.jsonl", "taxonomy.jsonl", "majors.jsonl"):
        shutil.copy(DATA_DIR / name, tmp_path / name)
    assert load_rules(tmp_path / "rules.jsonl") == default_rules()
    assert load_taxonomy(tmp_path / "taxonomy.jsonl") == default_taxonomy()
    assert load_majors(tmp_path / "majors.jsonl") == default_majors()


# ---------------------------------------------------------------------------
# AttributeProfile
# ---------------------------------------------------------------------------


def test_profile_vocabulary_checks():
    with pytest.raises(RecordError):
        AttributeProfile(gender="FEMALE")
    with pytest.raises(RecordError):
        AttributeProfile(race="api")
    with pytest.raises(RecordError):
        AttributeProfile(location="")
    with pytest.raises(RecordError):
        AttributeProfile.from_dict({"location": 5})


def test_profile_interests_must_be_clean():
    with pytest.raises(RecordError):
        AttributeProfile(interests={"#robotics"})
    with pytest.raises(RecordError):
        AttributeProfile(interests={""})
    profile = AttributeProfile(interests={"robotics"})
    assert profile.interests == frozenset({"robotics"})


def test_profile_serialization_sorts_interests():
    profile = AttributeProfile(gender="male", interests={"zeta", "alpha", "mid"})
    data = profile.to_dict()
    assert data["interests"] == ["alpha", "mid", "zeta"]
    assert AttributeProfile.from_dict(data) == profile


# ---------------------------------------------------------------------------
# Sharing within one load
# ---------------------------------------------------------------------------


def output_row(source="face", attribute="gender", value="female", accuracy=0.9):
    return {"source": source, "attribute": attribute, "value": value, "accuracy": accuracy}


def write_candidates(path, *outputs_per_row, **fields):
    write_jsonl(path, [candidate_row(id=f"c{i}", predictor_outputs=list(outputs), **fields)
                       for i, outputs in enumerate(outputs_per_row)])


def test_equal_predictor_outputs_of_one_load_are_one_object(tmp_path):
    gender, race = output_row(), output_row("name-demographics", "race", "Asian", 0.6)
    path = tmp_path / "candidates.jsonl"
    write_candidates(path, [gender, race], [dict(gender), dict(race)], [race], [])
    first, second, third, fourth = load_candidates(path).records
    assert first.predictor_outputs == (PredictorOutput("face", "gender", "female", 0.9),
                                       PredictorOutput("name-demographics", "race", "Asian", 0.6))
    assert first.predictor_outputs is second.predictor_outputs
    assert third.predictor_outputs[0] is first.predictor_outputs[1]
    assert fourth.predictor_outputs == ()
    again = load_candidates(path).records[0]
    assert again.predictor_outputs == first.predictor_outputs
    assert again.predictor_outputs is not first.predictor_outputs
    assert again.predictor_outputs[0] is not first.predictor_outputs[0]

    students = tmp_path / "students.jsonl"
    write_jsonl(students, [student_row(id=sid, predictor_outputs=[gender]) for sid in "ab"])
    a, b = load_students(students).records
    assert a.predictor_outputs is b.predictor_outputs


def test_a_cached_output_does_not_admit_a_value_that_only_compares_equal(tmp_path):
    path = tmp_path / "candidates.jsonl"
    write_candidates(path, [output_row(accuracy=1.0)], [output_row(accuracy=True)],
                     [output_row(accuracy=1)])
    result = load_candidates(path)
    assert [(e.line, e.message) for e in result.errors] == [
        (2, "accuracy must be a number or null")]
    first, third = result.records
    assert type(third.predictor_outputs[0].accuracy) is float
    assert third.predictor_outputs is first.predictor_outputs

    with pytest.raises(RecordError) as err:
        load_rolemodels(path)
    assert str(err.value) == f"{path} line 2: accuracy must be a number or null"


def test_a_zero_accuracy_keeps_its_sign(tmp_path):
    path = tmp_path / "candidates.jsonl"
    write_candidates(path, [output_row(accuracy=0.0)], [output_row(accuracy=-0.0)])
    accuracies = [r.predictor_outputs[0].accuracy for r in load_candidates(path).records]
    assert [math.copysign(1.0, a) for a in accuracies] == [1.0, -1.0]


@pytest.mark.parametrize("field", ["source", "attribute", "value", "accuracy"])
def test_an_unhashable_output_field_is_a_record_error(tmp_path, field):
    path = tmp_path / "candidates.jsonl"
    write_candidates(path, [output_row()], [output_row(**{field: ["face"]})])
    result = load_candidates(path)
    assert len(result.records) == 1
    assert [e.line for e in result.errors] == [2]
    with pytest.raises(RecordError):
        StudentRecord.from_dict(student_row(predictor_outputs=[output_row(**{field: ["face"]})]))


def test_candidate_strings_of_one_load_are_shared(tmp_path):
    path = tmp_path / "candidates.jsonl"
    shared = {"industry": "Biotechnology", "location_raw": "Boston, MA",
              "education_majors": ["Biology"], "interests_raw": ["genetics", "chess"],
              "skills_raw": ["Python"]}
    write_candidates(path, [], [], **shared)
    first, second = load_candidates(path).records
    for name in ("industry", "location_raw"):
        assert getattr(first, name) is getattr(second, name)
    for name in ("education_majors", "interests_raw", "skills_raw"):
        assert getattr(first, name) == tuple(shared[name])
        for a, b in zip(getattr(first, name), getattr(second, name)):
            assert a is b


def test_annotation_strings_of_one_load_are_shared(tmp_path):
    path = tmp_path / "gt.jsonl"
    place = {"gender": "female", "race": "Black", "city": "Austin", "state": "TX"}
    write_jsonl(path, [{"subject_id": sid, **place, "planted_candidate_id": None}
                       for sid in ("s1", "s2")])
    first, second = load_annotations(path).values()
    for name in place:
        assert getattr(first, name) == place[name]
        assert getattr(first, name) is getattr(second, name)
    write_jsonl(path, [{"subject_id": "s1", "city": ["Austin"]}])
    with pytest.raises(MatchError):
        load_annotations(path)


def test_loading_candidates_holds_well_under_a_kilobyte_each(tmp_path):
    # Each candidate held 1.2 kB under tracemalloc before loads shared equal
    # values, and 0.3 kB after (2000 candidates, Python 3.11).
    paths = generate_synthetic(SynthConfig(seed=3, n_students=10, n_candidates=2000), tmp_path)
    tracemalloc.start()
    try:
        loaded = load_candidates(paths["candidates"])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(loaded.records) == 2000 and not loaded.errors
    assert held / len(loaded.records) < 700
