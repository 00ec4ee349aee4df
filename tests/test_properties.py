"""Property-based equivalence of fast paths with their oracles: ranking with
the pairwise full sort, and the classifier's batched decision with the
per-example Python sum."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from stem_match import classifier, matching  # noqa: E402
from stem_match.records import AttributeProfile  # noqa: E402

# "robotics", "robotic", "robot" and "robots" fuzzy-match one another in
# chains at 0.8, so sets drawn from them run Kuhn's algorithm; the rest are
# non-ASCII words, some of them near-duplicates of one another.
WORDS = ("robotics", "robotic", "robot", "robots", "chess", "café", "cafés",
         "naïve", "日本語", "日本", "ünïcode", "ünïcodé")
CITIES = ("dallas, tx", "Dallas,  TX", "boston, ma", "zürich", "são paulo")

interest_sets = st.frozensets(
    st.sampled_from(WORDS) | st.text(alphabet="aéb日", min_size=1, max_size=4), max_size=4)
profiles = st.builds(
    AttributeProfile,
    gender=st.sampled_from((None, "female", "male")),
    race=st.sampled_from((None, "White", "Black", "Asian")),
    location=st.sampled_from((None,) + CITIES),
    interests=interest_sets,
)
# Candidates with unique ids, which come in drawn order, not id order.
pools = st.lists(st.tuples(st.text(alphabet="c01é", min_size=1, max_size=3), profiles),
                 min_size=1, max_size=10, unique_by=lambda candidate: candidate[0])

EMPTY = AttributeProfile()
KUHN = AttributeProfile(interests=frozenset({"robotics", "robotic", "robot"}))
TWIN = AttributeProfile(gender="female", location="zürich", interests=frozenset({"日本語"}))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(students=st.lists(profiles, min_size=1, max_size=6), candidates=pools,
       k=st.integers(1, 6), budget=st.integers(1, 40))
@example(
    # all-missing profiles, a Kuhn-path set, non-ASCII words, three
    # candidates tied at the top for TWIN and ids out of order
    students=[EMPTY, KUHN, TWIN, AttributeProfile(gender="female")],
    candidates=[("c9", TWIN), ("c1", EMPTY), ("é", KUHN), ("c10", TWIN), ("0", TWIN),
                ("c0", AttributeProfile(interests=frozenset({"robots", "robotic", "chess"})))],
    k=2,
    budget=6,
)
def test_match_corpus_equals_the_pairwise_full_sort(students, candidates, k, budget):
    students = [(f"s{i}", student) for i, student in enumerate(students)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_BLOCK_ELEMENTS", budget)
        results = matching.match_corpus(students, candidates, k=k)
    assert [r.student_id for r in results] == [sid for sid, _ in students]
    for (student_id, student), got in zip(students, results):
        want = oracles.full_sort_rank(student_id, student, candidates, k, 0.8)
        assert got.ranked == tuple(want), student_id


bins = st.integers(0, classifier.N_BINS - 1)
# Weights and biases from tiny to large, of either sign, and zero.
reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), with_retweet=st.booleans(), n=st.integers(0, 12))
def test_batched_decision_equals_the_per_example_python_sum(data, with_retweet, n):
    active = classifier.TrainConfig(with_retweet=with_retweet).active_features()
    model = classifier.ClassifierModel(
        weights=tuple(data.draw(reals) for _ in active), bias=data.draw(reals),
        active_features=active, seed=0, epochs=1, lam=0.01)
    vectors = [
        classifier.FeatureVector(data.draw(bins), data.draw(bins), data.draw(bins),
                                 data.draw(bins) if with_retweet else None)
        for _ in range(n)
    ]
    want = [oracles.decision_score(model, vector) for vector in vectors]
    assert classifier._scores(model, vectors).tolist() == want
    assert classifier.infer(model, vectors) == [
        classifier.COLLEGE if score >= 0.0 else classifier.NON_COLLEGE for score in want]
