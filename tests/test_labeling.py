"""Weak supervision: rule matching, conflicts, and label files."""

import random
import re

import pytest

import oracles
from stem_match.labeling import (
    COLLEGE,
    NON_COLLEGE,
    UNLABELED,
    LabelError,
    LabelRule,
    WeakLabel,
    default_rules,
    effective_label,
    label_corpus,
    label_rows,
    label_student,
    load_rules,
    read_labels,
)
from stem_match.labeling import _fold
from stem_match.records import StudentRecord, write_jsonl
from stem_match.synthetic import SynthConfig, generate_population

RULES = [
    LabelRule(pattern=r"i'?m going to college", label=COLLEGE, description="going-to-college"),
    LabelRule(pattern=r"#finals?week", label=COLLEGE, description="finals-week"),
    LabelRule(pattern=r"father", label=NON_COLLEGE, description="father"),
    LabelRule(pattern=r"manager of", label=NON_COLLEGE, description="manager"),
]


def student(bio="", tweets=()):
    return StudentRecord(id="s1", bio=bio, tweets=tuple(tweets) or ("placeholder",))


def test_rule_matching_is_case_insensitive():
    record = student(bio="I'M GOING TO COLLEGE next fall")
    label = label_student(record, RULES)
    assert label.value == COLLEGE
    assert label.matched_rules == ("going-to-college",)


def test_rules_match_bio_and_every_tweet_independently():
    record = student(bio="nothing to see", tweets=["so ready for #FinalsWeek", "mundane"])
    label = label_student(record, RULES)
    assert label.value == COLLEGE
    assert label.matched_rules == ("finals-week",)


def test_no_match_stays_unlabeled():
    label = label_student(student(bio="gardening and tea"), RULES)
    assert label.value == UNLABELED
    assert label.matched_rules == ()
    assert not label.is_conflict


def test_conflict_goes_unlabeled_with_both_sides_recorded():
    record = student(bio="father of two, i'm going to college again")
    label = label_student(record, RULES)
    assert label.value == UNLABELED
    # the unlabeled ⇔ no-matched-rules invariant holds; the evidence that
    # made this a conflict is carried on the side fields instead
    assert label.matched_rules == ()
    assert label.is_conflict
    assert label.conflict_college == ("going-to-college",)
    assert label.conflict_non_college == ("father",)


def test_weak_label_invariant_is_enforced():
    with pytest.raises(LabelError):
        WeakLabel(UNLABELED, ("finals-week",))
    with pytest.raises(LabelError):
        WeakLabel(COLLEGE, ())


def test_label_student_requires_rules():
    with pytest.raises(LabelError):
        label_student(student(bio="anything"), [])


def test_label_corpus_partition_is_exhaustive_and_disjoint():
    records = [
        StudentRecord(id="a", bio="i'm going to college", tweets=("x",)),
        StudentRecord(id="b", bio="father of two", tweets=("x",)),
        StudentRecord(id="c", bio="neither", tweets=("x",)),
        StudentRecord(id="d", bio="father, i'm going to college", tweets=("x",)),
    ]
    partition = label_corpus(records, RULES)
    assert {sid: label.value for sid, label in partition.labels.items()} == {
        "a": COLLEGE, "b": NON_COLLEGE, "c": UNLABELED, "d": UNLABELED}
    assert list(partition.counts().items()) == [(COLLEGE, 1), (NON_COLLEGE, 1), (UNLABELED, 2)]


def test_label_rows_only_carry_conflict_fields_when_conflicted():
    records = [
        StudentRecord(id="a", bio="i'm going to college", tweets=("x",)),
        StudentRecord(id="d", bio="father, i'm going to college", tweets=("x",)),
    ]
    partition = label_corpus(records, RULES)
    rows = list(label_rows(partition, records))
    assert "conflict_college" not in rows[0]
    assert rows[1]["conflict_college"] == ["going-to-college"]
    assert rows[1]["conflict_non_college"] == ["father"]


def test_effective_label_honors_override():
    assert effective_label({"label": UNLABELED, "override": COLLEGE}) == COLLEGE
    assert effective_label({"label": COLLEGE}) == COLLEGE
    with pytest.raises(LabelError):
        effective_label({"label": COLLEGE, "override": "graduate"})
    with pytest.raises(LabelError):
        effective_label({"label": "mystery"})


def test_read_labels_applies_overrides(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_jsonl(path, [
        {"id": "a", "label": COLLEGE, "matched_rules": ["finals-week"]},
        {"id": "b", "label": UNLABELED, "matched_rules": [], "override": NON_COLLEGE},
    ])
    assert read_labels(path) == {"a": COLLEGE, "b": NON_COLLEGE}


def test_load_rules_round_trip(tmp_path):
    path = tmp_path / "rules.jsonl"
    write_jsonl(path, [{"pattern": r.pattern, "label": r.label, "description": r.description}
                       for r in RULES])
    loaded = load_rules(path)
    assert loaded == list(RULES)
    assert [r.gate for r in loaded] == [r.gate for r in RULES]


@pytest.mark.parametrize("row, message", [
    ({"label": COLLEGE, "description": "x"}, "rule pattern must be a nonempty string, got None"),
    ({"pattern": "", "label": COLLEGE}, "rule pattern must be a nonempty string, got ''"),
    ({"pattern": 5, "label": COLLEGE}, "rule pattern must be a nonempty string, got 5"),
    ({"pattern": "x", "label": ["college"]}, "rule label must be a string, got ['college']"),
    ({"pattern": "x", "label": COLLEGE, "description": None},
     "rule description must be a string, got None"),
    ({"pattern": "x", "label": COLLEGE, "description": 5}, "rule description must be a string, got 5"),
], ids=["no-pattern", "empty-pattern", "number-pattern", "list-label", "null-description",
        "number-description"])
def test_a_rule_row_with_a_missing_or_mistyped_field_is_an_error_naming_file_and_line(
        tmp_path, row, message):
    path = tmp_path / "rules.jsonl"
    write_jsonl(path, [{"pattern": "x", "label": COLLEGE}])
    assert [rule.description for rule in load_rules(path)] == [""]
    write_jsonl(path, [{"pattern": "x", "label": COLLEGE}, row])
    with pytest.raises(LabelError) as err:
        load_rules(path)
    assert str(err.value) == f"{path} line 2: {message}"


def test_bundled_rules_cover_both_labels():
    rules = default_rules()
    labels = {rule.label for rule in rules}
    assert labels == {COLLEGE, NON_COLLEGE}
    descriptions = [rule.description for rule in rules]
    assert len(descriptions) == len(set(descriptions)), "rule descriptions must be unique"
    assert len(rules) >= 15


def test_bundled_rules_label_obvious_bios():
    rules = default_rules()
    college = label_student(student(bio="Class of 2027, roll tide"), rules)
    assert college.value == COLLEGE
    parent = label_student(student(bio="Mother of three wonderful kids"), rules)
    assert parent.value == NON_COLLEGE


# ---------------------------------------------------------------------------
# Literal gates: the gated rules label exactly as the ungated oracle
# ---------------------------------------------------------------------------

# Shapes the bundled rules lack: top-level alternation, anchors, a
# lookbehind, verbose mode, a case-sensitive group, a non-ASCII literal and
# a pattern with no literal at all.
EDGE_RULES = [
    LabelRule(pattern=r"wife|husband", label=NON_COLLEGE, description="spouse"),
    LabelRule(pattern=r"^retired$", label=NON_COLLEGE, description="only retired"),
    LabelRule(pattern=r"(?<=#)finals", label=COLLEGE, description="finals tag"),
    LabelRule(pattern=r"(?x) dining \s+ hall", label=COLLEGE, description="verbose dining hall"),
    LabelRule(pattern=r"(?-i:GPA) life", label=COLLEGE, description="case-sensitive GPA"),
    LabelRule(pattern=r"college’s", label=COLLEGE, description="curly apostrophe"),
    LabelRule(pattern=r"\d{4}", label=COLLEGE, description="a year"),
]


def test_gate_holds_the_literals_every_match_requires():
    assert {rule.description: rule.gate for rule in EDGE_RULES} == {
        "spouse": ("wife", "husband"),
        "only retired": ("retired",),
        "finals tag": ("finals",),
        "verbose dining hall": ("dining",),
        "case-sensitive GPA": (" life",),
        "curly apostrophe": ("college",),
        "a year": (),
    }
    gates = {rule.description: rule.gate for rule in default_rules()}
    assert gates["executive self-description"] == ("ceo", "cfo", "coo", "founder")
    assert gates["alumni self-description"] == ("alumn",)


EDGE_CASES = [
    ("spouse", "My WIFE says hi", True),
    ("spouse", "husbandry", True),
    ("spouse", "wi fe", False),
    ("only retired", "RETIRED", True),
    ("only retired", "not retired", False),
    ("finals tag", "#Finals week", True),
    ("finals tag", "finals week", False),
    ("verbose dining hall", "Dining\tHall", True),
    ("verbose dining hall", "dining-hall", False),
    ("case-sensitive GPA", "GPA Life", True),
    ("case-sensitive GPA", "gpa life", False),
    ("curly apostrophe", "COLLEGE’S", True),
    ("curly apostrophe", "college's", False),
    ("a year", "since 1999", True),
    ("a year", "since 99", False),
]


@pytest.mark.parametrize("description, text, hit", EDGE_CASES)
def test_edge_rules_label_as_the_ungated_oracle(description, text, hit):
    rule = next(rule for rule in EDGE_RULES if rule.description == description)
    for record in (student(bio=text), student(tweets=["nothing", text])):
        label = label_student(record, [rule])
        assert label == oracles.label_student(record, [rule])
        assert label.matched_rules == ((description,) if hit else ())


@pytest.mark.parametrize("text, value", [
    ("\u0130'm going to college", COLLEGE),  # dotted capital I
    ("\u0131'm going to college", COLLEGE),  # dotless small i
    ("\u017ftudying for finals", COLLEGE),  # long s
    ("my \u212aIDS", NON_COLLEGE),  # Kelvin sign
])
def test_non_ascii_twins_of_rule_literals_still_match(text, value):
    rules = default_rules()
    for record in (student(bio=text), student(tweets=["nothing", text])):
        label = label_student(record, rules)
        assert label == oracles.label_student(record, rules)
        assert label.value == value


@pytest.mark.parametrize("bio, tweets", [
    ("proud mother", ["of three"]),
    ("fat", ["her"]),
    ("", ["the dining", "hall was closed"]),
    ("since 19", ["99"]),
])
def test_a_literal_split_across_two_texts_does_not_match(bio, tweets):
    rules = default_rules() + EDGE_RULES
    record = StudentRecord(id="s1", bio=bio, tweets=tuple(tweets))
    label = label_student(record, rules)
    assert label == oracles.label_student(record, rules)
    assert label.value == UNLABELED and not label.is_conflict


def test_label_student_equals_the_ungated_oracle_on_a_synthetic_corpus():
    population = generate_population(SynthConfig(seed=21, n_students=2000, n_candidates=0))
    rules = default_rules()
    labels = [label_student(record, rules) for record in population.students]
    assert labels == [oracles.label_student(record, rules) for record in population.students]
    assert {label.value for label in labels} == {COLLEGE, NON_COLLEGE, UNLABELED}


def test_label_student_equals_the_ungated_oracle_on_random_strings():
    rng = random.Random(29)
    fragments = [
        "i'm going to college", "i", "'m", " going to ", "college", "#finals", "week",
        "university", "state", "'26", "’26", "class of 20", "24", "freshman ", "year",
        "#college", "life", "my ", "dorm", "kids", "studying for ", "finals", "undergrad",
        " at", "psych", " major", "dining", " hall", "professor", "manager", " of", "father",
        "mother", "ceo", "founder", "director", "retired", "alumn", "us", "wife", "GPA",
        "’s", "1999", "\u0130", "\u0131", "\u017f", "\u212a", "\U0001F600", " ", "  ",
    ]
    twins = {"i": "\u0130\u0131", "s": "\u017f", "k": "\u212a"}

    def fragment():
        piece = rng.choice(fragments)
        if rng.random() < 0.3:
            piece = piece.upper()
        if rng.random() < 0.3:
            piece = "".join(rng.choice(twins[c]) if c in twins and rng.random() < 0.5 else c
                            for c in piece)
        return piece

    def text():
        return "".join(fragment() for _ in range(rng.randint(0, 6)))

    rule_sets = (default_rules(), EDGE_RULES)
    seen = set()
    for _ in range(20000):
        record = StudentRecord(id="s1", bio=text(),
                               tweets=tuple(text() for _ in range(rng.randint(1, 2))))
        for rules in rule_sets:
            label = label_student(record, rules)
            assert label == oracles.label_student(record, rules), record
            seen.add((label.value, label.is_conflict))
    assert seen == {(COLLEGE, False), (NON_COLLEGE, False), (UNLABELED, False),
                    (UNLABELED, True)}


def test_every_non_ascii_twin_of_an_ascii_character_folds_to_its_lowercase():
    # The gates are exact only while these two facts about the Unicode
    # database hold; a Python whose database breaks them fails here.
    non_ascii = "".join(map(chr, range(0x80, 0x110000)))
    twins = set()
    for code in range(0x80):
        for twin in re.findall(re.escape(chr(code)), non_ascii, re.IGNORECASE):
            assert _fold(twin) == chr(code).lower(), (hex(ord(twin)), chr(code))
            twins.add(twin)
    assert twins >= {"\u0130", "\u0131", "\u017f", "\u212a"}
    assert [c for c in map(chr, range(0x110000)) if len(c.lower()) != 1] == ["\u0130"]
