"""Tweet features and the max-margin college classifier."""

import dataclasses
import math
import random

import pytest

import oracles
from stem_match.classifier import (
    EMOJI_RANGES,
    ClassifierError,
    FeatureVector,
    TrainConfig,
    contains_emoji,
    contains_hahalol,
    contains_hashtag,
    cross_validate,
    extract_features,
    infer,
    is_retweet,
    save_model,
    train,
)
from stem_match.labeling import COLLEGE, NON_COLLEGE
from stem_match.records import StudentRecord
from stem_match.synthetic import SynthConfig, generate_population


def student(tweets):
    return StudentRecord(id="s1", tweets=tuple(tweets))


def vector(emoji=0, hashtag=0, hahalol=0, retweet=None):
    return FeatureVector(
        emoji_bin=emoji, hashtag_bin=hashtag, hahalol_bin=hahalol,
        retweet_bin=retweet,
    )


# ---------------------------------------------------------------------------
# Per-tweet predicates
# ---------------------------------------------------------------------------


def test_emoji_detection_covers_the_four_blocks():
    assert contains_emoji("nice \U0001F300")   # symbols & pictographs
    assert contains_emoji("ha \U0001F604")     # emoticons
    assert contains_emoji("go \U0001F680")     # transport
    assert contains_emoji("brain \U0001F9E0")  # supplemental
    assert not contains_emoji("plain text :-)")
    assert not contains_emoji("star ✨")   # dingbat block, not counted


# Each end of each emoji range, and the code points just outside it.
EMOJI_EDGES = sorted({cp + d for lo, hi in EMOJI_RANGES for cp in (lo, hi) for d in (-1, 0, 1)})


def test_emoji_detection_agrees_with_the_range_oracle_on_every_code_point_near_the_blocks():
    assert 0x1F000 < EMOJI_EDGES[0] and EMOJI_EDGES[-1] < 0x1FAFF
    for cp in range(0x1F000, 0x1FB00):
        assert contains_emoji(chr(cp)) == oracles.contains_emoji(chr(cp)), hex(cp)


@pytest.mark.parametrize("filler", ["plain ascii text", "caf\u00e9 \u2728 \u4e2d\u6587 \uffff", ""])
def test_emoji_detection_agrees_with_the_range_oracle_at_any_position(filler):
    for cp in EMOJI_EDGES + [0x2728, 0x263A, 0x1FA70]:
        ch = chr(cp)
        for text in (ch + filler, filler[:3] + ch + filler[3:], filler + ch, filler):
            assert contains_emoji(text) == oracles.contains_emoji(text), (hex(cp), text)


def test_extract_features_emoji_counts_match_the_oracle_on_a_synthetic_corpus():
    population = generate_population(SynthConfig(seed=5, n_students=200, n_candidates=0))
    with_tweets = [record for record in population.students if record.tweets]
    assert any(oracles.contains_emoji(t) for r in with_tweets for t in r.tweets)
    for record in with_tweets:
        total = len(record.tweets)
        count = sum(1 for t in record.tweets if oracles.contains_emoji(t))
        assert extract_features(record).emoji_bin == min(10 * count // total, 9), record.id
        # one tweet at a time, the bin is 9 or 0: each tweet is counted as the oracle counts it
        for tweet in record.tweets:
            one = StudentRecord(id=record.id, tweets=(tweet,))
            assert extract_features(one).emoji_bin == 9 * oracles.contains_emoji(tweet), tweet


def test_hahalol_is_case_sensitive_and_token_bounded():
    assert contains_hahalol("HAHA")
    assert contains_hahalol("HAHAHAH so good")
    assert contains_hahalol("LOL")
    assert contains_hahalol("LOOOOL")
    assert not contains_hahalol("haha lowercase")
    assert not contains_hahalol("BLAHAHA")      # no token boundary before HA
    assert not contains_hahalol("HA")           # single HA is not laughter
    assert not contains_hahalol("LOLLY")        # must end at a boundary


HAHALOL_EDGES = ["HAHA", "HAHAH", "HAHAHH", "HA", "HAH", "AHA", "LOL", "LOOOL", "LL", "LOLOL",
                 "xLOL", "LOLx", "HAHA_", "_HAHA", "HAHA!", "HALOL", "HAHALOL", "LOL HA",
                 "\u00e9HAHA", "HAHA\u00e9", "\u00e9LOL", "LOL\u00e9", "\u4e2dLOL", "", " "]


@pytest.mark.parametrize("filler", ["", " ", "x", "!", "_", "\u00e9", " and then "])
def test_hahalol_agrees_with_the_two_regex_oracle_on_edge_strings(filler):
    for edge in HAHALOL_EDGES:
        for text in (edge, filler + edge, edge + filler, filler + edge + filler,
                     edge + filler + "LOL", "HAHA" + filler + edge):
            assert contains_hahalol(text) == oracles.contains_hahalol(text), repr(text)


def test_hahalol_agrees_with_the_two_regex_oracle_on_random_strings():
    rng = random.Random(17)
    pieces = ["HA", "H", "A", "LO", "L", "O", " ", "x", "!", "_", "\u00e9"]
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
        assert contains_hahalol(text) == oracles.contains_hahalol(text), repr(text)


def test_extract_features_hahalol_counts_match_the_oracle_on_a_synthetic_corpus():
    population = generate_population(SynthConfig(seed=5, n_students=200, n_candidates=0))
    with_tweets = [record for record in population.students if record.tweets]
    assert any(oracles.contains_hahalol(t) for r in with_tweets for t in r.tweets)
    for record in with_tweets:
        total = len(record.tweets)
        count = sum(1 for t in record.tweets if oracles.contains_hahalol(t))
        assert extract_features(record).hahalol_bin == min(10 * count // total, 9), record.id
        for tweet in record.tweets:
            one = StudentRecord(id=record.id, tweets=(tweet,))
            assert extract_features(one).hahalol_bin == 9 * oracles.contains_hahalol(tweet), tweet


def test_hashtag_and_retweet_predicates():
    assert contains_hashtag("big #news today")
    assert not contains_hashtag("no tags # alone")
    assert is_retweet("RT @user: text")
    assert not is_retweet("rt @user lowercase")
    assert not is_retweet("mid RT @user")


# ---------------------------------------------------------------------------
# Feature extraction and binning
# ---------------------------------------------------------------------------


def test_relative_frequency_bins_use_integer_math():
    # 3 of 10 tweets → frequency 0.3 → bin 3 even though 0.3 * 10 is
    # 2.999… in floating point
    tweets = ["#x"] * 3 + ["plain"] * 7
    features = extract_features(student(tweets))
    assert features.hashtag_bin == 3


@pytest.mark.parametrize("count,total,expected", [
    (0, 5, 0),
    (1, 7, 1),
    (1, 3, 3),
    (2, 3, 6),
    (3, 3, 9),      # frequency 1.0 folds into the top bin
    (29, 30, 9),
    (5, 10, 5),
])
def test_bin_boundaries(count, total, expected):
    tweets = ["#x"] * count + ["plain"] * (total - count)
    assert extract_features(student(tweets)).hashtag_bin == expected


def test_extract_features_requires_tweets():
    record = StudentRecord(id="s1", tweets=(), bio="bio only")
    with pytest.raises(ClassifierError):
        extract_features(record)


def test_retweet_bin_only_present_when_requested():
    tweets = ["RT @a: x", "plain"]
    assert extract_features(student(tweets)).retweet_bin is None
    assert extract_features(student(tweets), with_retweet=True).retweet_bin == 5


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def separable_data(n_per_class=20, seed=0):
    rng = random.Random(seed)
    features, labels = [], []
    for _ in range(n_per_class):
        features.append(vector(emoji=rng.randint(7, 9), hahalol=rng.randint(6, 9)))
        labels.append(COLLEGE)
        features.append(vector(emoji=rng.randint(0, 2), hahalol=rng.randint(0, 2)))
        labels.append(NON_COLLEGE)
    return features, labels


def test_train_objective_history_never_increases():
    features, labels = separable_data()
    model = train(features, labels)
    history = model.objective_history
    assert len(history) > 1
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))


def test_train_is_deterministic():
    features, labels = separable_data()
    assert train(features, labels) == train(features, labels)


def test_infer_is_duplication_invariant():
    # training weights each distinct example by its share count / n, which
    # duplicating the corpus leaves exactly as it was, so every weight and
    # prediction is unchanged
    features, labels = separable_data()
    once = train(features, labels)
    twice = train(features + features, labels + labels)
    assert (once.weights, once.bias) == (twice.weights, twice.bias)
    probes = [vector(emoji=e, hahalol=h) for e in range(10) for h in range(10)]
    assert infer(once, probes) == infer(twice, probes)


def test_train_separates_separable_data():
    features, labels = separable_data()
    model = train(features, labels)
    assert infer(model, features) == labels


def test_infer_of_no_vectors_is_empty():
    assert infer(train(*separable_data()), []) == []


@pytest.mark.parametrize("epochs", [0, -3, 2.5, True])
def test_train_config_needs_at_least_one_epoch(epochs):
    with pytest.raises(ClassifierError, match="^epochs must be an integer >= 1"):
        TrainConfig(epochs=epochs)


@pytest.mark.parametrize("lam", [0, 0.0, -1.0, math.nan, math.inf, True, "0.1"])
def test_train_config_needs_a_finite_positive_lam(lam):
    with pytest.raises(ClassifierError, match="^lam must be a finite number > 0"):
        TrainConfig(lam=lam)


@pytest.mark.parametrize("seed", [-1, True, 1.0])
def test_train_config_needs_an_integer_seed_of_at_least_zero(seed):
    with pytest.raises(ClassifierError) as err:
        TrainConfig(seed=seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"


def test_train_needs_two_examples_per_class():
    with pytest.raises(ClassifierError):
        train([vector(emoji=9), vector(emoji=8), vector(emoji=1)],
              [COLLEGE, COLLEGE, NON_COLLEGE])


def test_train_rejects_unknown_labels():
    with pytest.raises(ClassifierError):
        train([vector()] * 4, [COLLEGE, COLLEGE, "alumni", NON_COLLEGE])


def test_infer_boundary_score_goes_to_college():
    features, labels = separable_data()
    model = train(features, labels)
    probe = vector(emoji=5, hahalol=5)
    score = oracles.decision_score(model, probe)
    assert infer(model, [probe]) == [COLLEGE if score >= 0 else NON_COLLEGE]
    zero = dataclasses.replace(model, weights=(0.0, 0.0, 0.0), bias=0.0)
    assert infer(zero, [probe]) == [COLLEGE]


def test_model_arity_mismatch_is_an_error():
    features, labels = separable_data()
    with_rt = [vector(f.emoji_bin, f.hashtag_bin, f.hahalol_bin, retweet=3) for f in features]
    model = train(with_rt, labels, TrainConfig(with_retweet=True))
    with pytest.raises(ClassifierError, match="retweet_bin missing"):
        infer(model, [with_rt[0], vector(emoji=5)])  # the second vector lacks retweet_bin


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def test_cross_validation_is_perfect_on_separable_data():
    features, labels = separable_data(n_per_class=30)
    assert cross_validate(features, labels, k=10) == 1.0


def test_cross_validation_is_deterministic():
    features, labels = separable_data(n_per_class=15)
    first = cross_validate(features, labels, k=5)
    second = cross_validate(features, labels, k=5)
    assert first == second


def test_cross_validation_validates_fold_count():
    features, labels = separable_data(n_per_class=3)
    with pytest.raises(ClassifierError):
        cross_validate(features, labels, k=1)
    with pytest.raises(ClassifierError):
        cross_validate(features, labels, k=len(features) + 1)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cv_accuracy", [2 / 3, None])
@pytest.mark.parametrize("with_retweet", [False, True])
def test_each_value_line_of_the_model_file_reads_back_as_the_models_exact_value(
        tmp_path, with_retweet, cv_accuracy):
    features, labels = separable_data()
    if with_retweet:
        features = [dataclasses.replace(f, retweet_bin=i % 10) for i, f in enumerate(features)]
    model = dataclasses.replace(train(features, labels, TrainConfig(with_retweet=with_retweet)),
                                cv_accuracy=cv_accuracy)
    path = tmp_path / "model.txt"
    save_model(model, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header.startswith("# ")
    want = {**{f"feature {name}": weight
               for name, weight in zip(model.active_features, model.weights)},
            "bias": model.bias, "lambda": model.lam, "seed": model.seed,
            "epochs": model.epochs}
    # a model without a cross-validated accuracy writes no line for it
    if cv_accuracy is not None:
        want["cv_accuracy"] = cv_accuracy
    assert ("feature retweet_bin" in want) == with_retweet
    written = dict(line.rsplit(" ", 1) for line in lines)
    assert list(written) == list(want)
    for key, value in want.items():
        # the float's or int's repr, so every bit of every float reads back
        read = type(value)(written[key])
        assert read == value and repr(read) == written[key], key


@pytest.mark.parametrize("field", ["epochs", "seed", "lam"])
def test_no_model_holds_a_bool_its_file_could_not_read_back(field):
    # save_model would write True as "True", which is no int or float line;
    # TrainConfig rejects it too, so train cannot make one.
    with pytest.raises(ClassifierError, match=f"^{field} must be "):
        dataclasses.replace(train(*separable_data()), **{field: True})


# Each replaces one field of a trained model with a value the model file
# could not state as a finite number, a count or an accuracy.
@pytest.mark.parametrize("field, value, message", [
    ("weights", math.nan, "emoji_bin must be a finite number, got nan"),
    ("bias", math.inf, "bias must be a finite number, got inf"),
    ("lam", -1.0, "lam must be a finite number > 0, got -1.0"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("epochs", -3, "epochs must be an integer >= 1, got -3"),
    ("cv_accuracy", 7.5, "cv_accuracy must be null or within [0, 1], got 7.5"),
])
def test_a_model_rejects_a_value_no_model_can_hold(field, value, message):
    model = train(*separable_data())
    if field == "weights":
        value = (value,) + model.weights[1:]
    with pytest.raises(ClassifierError) as err:
        dataclasses.replace(model, **{field: value})
    assert str(err.value) == message


def test_a_model_that_fails_mid_write_leaves_the_previous_file_whole(tmp_path):
    model = train(*separable_data())
    path = tmp_path / "model.txt"
    save_model(model, path)
    before = path.read_bytes()
    # a lone surrogate cannot be encoded as UTF-8, so the write fails part way
    unwritable = dataclasses.replace(
        model, active_features=("x\ud800",) + model.active_features[1:])
    with pytest.raises(UnicodeEncodeError):
        save_model(unwritable, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_model_file_is_plain_text(tmp_path):
    features, labels = separable_data()
    path = tmp_path / "model.txt"
    save_model(train(features, labels), path)
    text = path.read_text(encoding="utf-8")
    assert "feature emoji_bin" in text
    assert "bias " in text
    assert "lambda " in text
