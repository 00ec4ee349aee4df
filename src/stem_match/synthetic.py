"""Seeded synthetic population generator for desk-scale verification.

Produces a cohort of students (Twitter-shaped records), a pool of
candidates (LinkedIn-shaped records), and a ground-truth annotation file,
all from a single integer seed.  A configurable fraction of students get
a *planted* ideal candidate: one that shares the student's gender, race,
city, and full interest set, so it scores a perfect combined similarity
and should surface at (or near) the top of that student's ranking.

Generated truth is recorded in gt.jsonl regardless of missingness:
masking an attribute removes it from the *records* (the observable data),
never from the annotations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .attributes import _HASHTAG
from .records import (
    GENDER_VALUES,
    RACE_VALUES,
    CandidateRecord,
    PredictorOutput,
    StudentRecord,
    _is_int,
    write_jsonl,
)
from .rolemodels import (GROUP_NON_STEM, GROUP_RELATED, GROUP_STEM, GROUPS, KEPT_REASONS,
                         default_majors, default_taxonomy, role_model_reason)

# Single-token tags (hashtag-safe) chosen pairwise dissimilar under the
# edit-distance similarity at the default 0.8 threshold, so two distinct
# tags never fuzzy-match and a perfect interest score requires the same set.
DEFAULT_INTEREST_VOCABULARY = (
    "robotics", "astronomy", "chemistry", "genetics", "calculus", "coding",
    "spaceflight", "fossils", "circuits", "algebra", "ecology", "neurons",
    "lasers", "drones", "meteorology", "puzzles", "origami", "chess",
    "photography", "climbing", "baking", "videogames", "poetry", "gardening",
    "kayaking", "weaving", "volcanoes", "whales", "comets", "microbes",
)

# (city, state, weight); includes the ten cities used by top-10 evaluation
# plus a tail of others, with several cities sharing a state so that
# state-level matching is strictly more forgiving than city-level.
DEFAULT_CITIES = (
    ("San Francisco", "CA", 9.0),
    ("New York City", "NY", 10.0),
    ("Atlanta", "GA", 6.0),
    ("Los Angeles", "CA", 8.0),
    ("Dallas", "TX", 6.0),
    ("Chicago", "IL", 7.0),
    ("Washington D.C.", "DC", 5.0),
    ("Boston", "MA", 6.0),
    ("Seattle", "WA", 6.0),
    ("Houston", "TX", 6.0),
    ("Miami", "FL", 4.0),
    ("Denver", "CO", 4.0),
    ("Portland", "OR", 3.0),
    ("Phoenix", "AZ", 3.0),
    ("Minneapolis", "MN", 3.0),
    ("Austin", "TX", 4.0),
)

DEFAULT_GENDER_MARGINALS = {"female": 0.54, "male": 0.46}
DEFAULT_RACE_MARGINALS = {
    "White": 0.42, "Black": 0.17, "Asian": 0.16, "Api": 0.05, "Hispanic": 0.20,
}
DEFAULT_LABEL_MIX = {"college": 0.60, "non_college": 0.25, "unlabeled": 0.15}
DEFAULT_MISSINGNESS = {"gender": 0.0, "race": 0.0, "location": 0.0, "interests": 0.0}

_GIVEN_NAMES = (
    "Ava", "Liam", "Maya", "Noah", "Zoe", "Ethan", "Priya", "Lucas",
    "Mei", "Owen", "Sofia", "Jamal", "Nina", "Omar", "Ella", "Hiro",
    "Leila", "Diego", "Tara", "Felix", "Aisha", "Ravi", "Grace", "Mateo",
)
_SURNAMES = (
    "Chen", "Johnson", "Garcia", "Patel", "Kim", "Okafor", "Brown",
    "Nguyen", "Lopez", "Smith", "Haddad", "Ito", "Ramirez", "Novak",
    "Osei", "Park", "Silva", "Khan", "Murray", "Diaz", "Weber", "Ali",
    "Fontaine", "Ross",
)

# Bios are the only place label-rule signal appears; every tweet template
# below is rule-neutral so a student's weak label is decided by bio alone.
_COLLEGE_BIOS = (
    "Class of 2027 · future engineer",
    "Freshman year at State, loving the dining hall",
    "studying for finals and living on coffee",
    "undergrad at the best school in the country",
    "My roommate says I tweet too much #collegelife",
    "cs major, robotics club, chronically online",
)
_NON_COLLEGE_BIOS = (
    "Father of two, engineer at heart",
    "Manager of a small sales team",
    "Retired and loving every minute",
    "CEO of my own little startup",
    "Proud alumnus, professor of chemistry",
    "Mother of three, director of operations",
)
_NEUTRAL_BIOS = (
    "just a human being on the internet",
    "coffee, code, and long walks",
    "dreaming big and posting small",
    "somewhere between here and there",
    "opinions are my own",
    "perpetually curious",
)
_FILLER_TWEETS = (
    "what a day",
    "thinking about the weekend already",
    "this weather is something else",
    "best sandwich of my life just happened",
    "cannot believe how fast this year is going",
    "sunday reset complete",
)
_INTEREST_TWEETS = (
    "spent the whole weekend on #{tag}",
    "cannot stop thinking about #{tag}",
    "new obsession: #{tag}",
)
_HAHA_TWEETS = ("HAHAHA that was incredible", "LOOOL did you see that")
_RETWEETS = (
    "RT @science_daily: new discovery announced",
    "RT @local_news: big day downtown",
)
_EMOJI = ("\U0001F525", "\U0001F602", "\U0001F680", "\U0001F916")

# Per-tweet rates of emoji / laughter / retweet by underlying class; the
# gap between the college and non-college rows is the separable signal the
# tweet-feature classifier is meant to pick up.
_TWEET_RATES = {
    "college": (0.45, 0.30, 0.15),
    "non_college": (0.10, 0.05, 0.45),
    "unlabeled": (0.25, 0.15, 0.30),
}

_NON_STEM_MAJORS = ("History", "Fine Arts", "Marketing", "Philosophy")
_UNKNOWN_INDUSTRIES = ("Dream Consulting", "Freelance Adventuring", "Artisanal Widgets")

_GENDER_ACCURACY = 0.95
_RACE_ACCURACY = 0.90


class SynthError(ValueError):
    """Raised for invalid generator configuration."""


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_fraction(v) -> bool:
    return _is_number(v) and 0.0 <= v <= 1.0


def _is_weight(v) -> bool:
    return _is_number(v) and math.isfinite(v) and v >= 0


def _is_city(entry) -> bool:
    return (isinstance(entry, (list, tuple)) and len(entry) == 3
            and all(isinstance(part, str) and part for part in entry[:2])
            and _is_weight(entry[2]) and entry[2] > 0)


def _marginals(allowed: tuple[str, ...]) -> tuple:
    """The rule of a key that maps values of ``allowed`` to sampling weights."""

    def accepts(v) -> bool:
        return (isinstance(v, Mapping)
                and all(key in allowed and _is_weight(weight) for key, weight in v.items())
                and sum(v.values()) > 0)

    return accepts, (f"an object mapping some of {', '.join(allowed)} to finite weights >= 0 "
                     "with a positive sum")


_COUNT = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")

# Config key -> (accepts(value), what it must be), checked by ``__post_init__``
# in this order.
_CONFIG_KEYS = {
    "seed": (_is_int, "an integer"),
    "n_students": _COUNT,
    "n_candidates": _COUNT,
    "cities": (lambda v: isinstance(v, (list, tuple)) and bool(v) and all(map(_is_city, v)),
               "a nonempty list of [city, state, weight] with a finite weight > 0"),
    "gender_marginals": _marginals(GENDER_VALUES),
    "race_marginals": _marginals(RACE_VALUES),
    # A tag is written into tweets as "#" + tag, so it must read back whole
    # as one hashtag.
    "interest_vocabulary": (lambda v: isinstance(v, (list, tuple)) and bool(v) and all(
        isinstance(tag, str) and _HASHTAG.fullmatch("#" + tag) for tag in v),
        "a nonempty list of tags that each read as one hashtag"),
    "min_interests": _COUNT,
    "max_interests": _COUNT,
    "planted_fraction": (_is_fraction, "a number within [0, 1]"),
    "missingness": (lambda v: isinstance(v, Mapping) and all(
        key in DEFAULT_MISSINGNESS and _is_fraction(rate) for key, rate in v.items()),
        f"an object mapping some of {', '.join(DEFAULT_MISSINGNESS)} to numbers within [0, 1]"),
    "label_mix": _marginals(tuple(DEFAULT_LABEL_MIX)),
}


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic population."""

    seed: int = 7
    n_students: int = 100
    n_candidates: int = 500
    cities: tuple[tuple[str, str, float], ...] = DEFAULT_CITIES
    gender_marginals: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_GENDER_MARGINALS))
    race_marginals: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_RACE_MARGINALS))
    interest_vocabulary: tuple[str, ...] = DEFAULT_INTEREST_VOCABULARY
    min_interests: int = 1
    max_interests: int = 3
    planted_fraction: float = 0.0
    missingness: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MISSINGNESS))
    label_mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_LABEL_MIX))

    def __post_init__(self) -> None:
        for key, (accepts, what) in _CONFIG_KEYS.items():
            value = getattr(self, key)
            if not accepts(value):
                raise SynthError(f"synth config key {key!r} must be {what}, got {value!r}")
        object.__setattr__(self, "cities", tuple((c, s, float(w)) for c, s, w in self.cities))
        object.__setattr__(self, "interest_vocabulary", tuple(self.interest_vocabulary))
        if self.min_interests > self.max_interests:
            raise SynthError("need min_interests <= max_interests")
        if self.max_interests > len(self.interest_vocabulary):
            raise SynthError("max_interests exceeds vocabulary size")
        if round(self.planted_fraction * self.n_students) > self.n_candidates:
            raise SynthError("more planted matches requested than candidates available")

    @classmethod
    def from_dict(cls, data: Mapping) -> "SynthConfig":
        if not isinstance(data, Mapping):
            raise SynthError("synth config must be a JSON object")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise SynthError(f"unknown synth config keys: {sorted(unknown)}")
        return cls(**data)

    def missing_rate(self, attribute: str) -> float:
        return float(self.missingness.get(attribute, 0.0))


@dataclass(frozen=True)
class SynthPopulation:
    """In-memory result of one generation run."""

    students: tuple[StudentRecord, ...]
    candidates: tuple[CandidateRecord, ...]
    annotations: tuple[dict, ...]


def _predictor_outputs(gender: str | None, race: str | None) -> tuple[PredictorOutput, ...]:
    outputs = []
    if gender is not None:
        outputs.append(PredictorOutput("name-gender", "gender", gender, _GENDER_ACCURACY))
    if race is not None:
        outputs.append(PredictorOutput("name-demographics", "race", race, _RACE_ACCURACY))
    return tuple(outputs)


def _tweets_for(rng: random.Random, label_class: str, interests: tuple[str, ...]) -> tuple[str, ...]:
    emoji_p, haha_p, retweet_p = _TWEET_RATES[label_class]
    tweets = [rng.choice(_INTEREST_TWEETS).format(tag=tag) for tag in interests]
    for _ in range(rng.randint(4, 9)):
        roll = rng.random()
        if roll < haha_p:
            text = rng.choice(_HAHA_TWEETS)
        elif roll < haha_p + retweet_p:
            text = rng.choice(_RETWEETS)
        else:
            text = rng.choice(_FILLER_TWEETS)
        if rng.random() < emoji_p:
            text = f"{text} {rng.choice(_EMOJI)}"
        tweets.append(text)
    return tuple(tweets)


def _weighted_city(rng: random.Random, cities: tuple[tuple[str, str, float], ...]) -> tuple[str, str]:
    city, state, _ = rng.choices(cities, weights=[w for _, _, w in cities], k=1)[0]
    return city, state


def _weighted_value(rng: random.Random, marginals: Mapping[str, float]) -> str:
    keys = list(marginals)
    return rng.choices(keys, weights=[marginals[k] for k in keys], k=1)[0]


def _interest_forms(rng: random.Random, tags: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """Split tags between interests and skills, with harmless case jitter."""
    interests, skills = [], []
    for tag in tags:
        shown = tag.title() if rng.random() < 0.3 else tag
        (skills if rng.random() < 0.25 else interests).append(shown)
    return interests, skills


def generate_population(config: SynthConfig) -> SynthPopulation:
    """Generate one full population from the configured seed.

    Students are generated first, then the planted student/candidate
    pairing, then candidates, so the random stream (hence the output) is a
    pure function of the config.  Planted candidates copy their student's
    true gender, race, city, and interest tags and are exempt from
    missingness so the planted pair stays observable end to end; they
    always get a STEM-group industry so the role-model filter keeps them.
    """
    rng = random.Random(config.seed)
    taxonomy = default_taxonomy()
    industries = {group: taxonomy.industries(group) for group in GROUPS}
    majors = default_majors()
    stem_major_forms = tuple(majors.canonical[:8]) + ("cs", "comp sci", "computer science")

    sid_width = max(4, len(str(config.n_students)))
    cid_width = max(4, len(str(config.n_candidates)))

    # -- students ----------------------------------------------------------
    students: list[StudentRecord] = []
    truths: list[dict] = []
    label_keys = tuple(DEFAULT_LABEL_MIX)
    for i in range(config.n_students):
        label_class = rng.choices(
            label_keys, weights=[config.label_mix.get(k, 0.0) for k in label_keys], k=1
        )[0]
        given, surname = rng.choice(_GIVEN_NAMES), rng.choice(_SURNAMES)
        gender = _weighted_value(rng, config.gender_marginals)
        race = _weighted_value(rng, config.race_marginals)
        city, state = _weighted_city(rng, config.cities)
        n_tags = rng.randint(config.min_interests, config.max_interests)
        tags = tuple(sorted(rng.sample(config.interest_vocabulary, n_tags)))

        miss_gender = rng.random() < config.missing_rate("gender")
        miss_race = rng.random() < config.missing_rate("race")
        miss_location = rng.random() < config.missing_rate("location")
        miss_interests = rng.random() < config.missing_rate("interests")

        if label_class == "college":
            bio = rng.choice(_COLLEGE_BIOS)
        elif label_class == "non_college":
            bio = rng.choice(_NON_COLLEGE_BIOS)
        else:
            bio = rng.choice(_NEUTRAL_BIOS)

        location_raw = "" if miss_location else f"{city}, {state}"
        if location_raw and rng.random() < 0.2:
            location_raw = location_raw.lower()

        students.append(
            StudentRecord(
                id=f"s{i + 1:0{sid_width}d}",
                tweets=_tweets_for(rng, label_class, () if miss_interests else tags),
                bio=bio,
                display_name=f"{given} {surname}",
                location_raw=location_raw,
                predictor_outputs=_predictor_outputs(
                    None if miss_gender else gender, None if miss_race else race
                ),
            )
        )
        truths.append(
            {"gender": gender, "race": race, "city": city, "state": state, "tags": tags}
        )

    # -- planted pairing ---------------------------------------------------
    n_planted = round(config.planted_fraction * config.n_students)
    planted_students = sorted(rng.sample(range(config.n_students), n_planted))
    planted_slots = rng.sample(range(config.n_candidates), n_planted)
    plant_at = dict(zip(planted_slots, planted_students))
    plant_of: dict[int, str] = {}

    # -- candidates --------------------------------------------------------
    candidates: list[CandidateRecord] = []
    candidate_rows: list[dict] = []
    for j in range(config.n_candidates):
        cid = f"c{j + 1:0{cid_width}d}"
        given, surname = rng.choice(_GIVEN_NAMES), rng.choice(_SURNAMES)
        if j in plant_at:
            student_idx = plant_at[j]
            truth = truths[student_idx]
            plant_of[student_idx] = cid
            gender, race = truth["gender"], truth["race"]
            city, state = truth["city"], truth["state"]
            tags = truth["tags"]
            industry = rng.choice(industries[GROUP_STEM])
            majors_field = [rng.choice(stem_major_forms)]
            miss_gender = miss_race = miss_tags = False
        else:
            gender = _weighted_value(rng, config.gender_marginals)
            race = _weighted_value(rng, config.race_marginals)
            city, state = _weighted_city(rng, config.cities)
            n_tags = rng.randint(config.min_interests, config.max_interests)
            tags = tuple(sorted(rng.sample(config.interest_vocabulary, n_tags)))
            roll = rng.random()
            if roll < 0.25:
                industry = rng.choice(industries[GROUP_STEM])
            elif roll < 0.45:
                industry = rng.choice(industries[GROUP_RELATED])
            elif roll < 0.90:
                industry = rng.choice(industries[GROUP_NON_STEM])
            else:
                industry = rng.choice(_UNKNOWN_INDUSTRIES)
            major_roll = rng.random()
            if major_roll < 0.45:
                majors_field = [rng.choice(stem_major_forms)]
            elif major_roll < 0.70:
                majors_field = [rng.choice(_NON_STEM_MAJORS)]
            else:
                majors_field = []
            miss_gender = rng.random() < config.missing_rate("gender")
            miss_race = rng.random() < config.missing_rate("race")
            miss_tags = rng.random() < config.missing_rate("interests")

        interests_raw, skills_raw = _interest_forms(rng, () if miss_tags else tags)
        record = CandidateRecord(
            id=cid,
            full_name=f"{given} {surname}",
            industry=industry,
            education_majors=tuple(majors_field),
            interests_raw=tuple(interests_raw),
            skills_raw=tuple(skills_raw),
            location_raw=f"{city}, {state}",
            predictor_outputs=_predictor_outputs(
                None if miss_gender else gender, None if miss_race else race
            ),
        )
        candidates.append(record)
        candidate_rows.append(
            {
                "subject_id": cid,
                "gender": gender,
                "race": race,
                "city": city,
                "state": state,
                "is_stem_role_model": role_model_reason(record, taxonomy, majors) in KEPT_REASONS,
            }
        )

    # -- annotations -------------------------------------------------------
    annotations: list[dict] = []
    for i, (student, truth) in enumerate(zip(students, truths)):
        row = {
            "subject_id": student.id,
            "gender": truth["gender"],
            "race": truth["race"],
            "city": truth["city"],
            "state": truth["state"],
        }
        if i in plant_of:
            row["planted_candidate_id"] = plant_of[i]
        annotations.append(row)
    annotations.extend(candidate_rows)

    return SynthPopulation(tuple(students), tuple(candidates), tuple(annotations))


def generate_synthetic(config: SynthConfig, out_dir: str | Path) -> dict[str, Path]:
    """Generate a population and write the three JSONL artifacts.

    Returns the written paths keyed ``students``, ``candidates``, ``gt``.
    """
    population = generate_population(config)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "students": directory / "students.jsonl",
        "candidates": directory / "candidates.jsonl",
        "gt": directory / "gt.jsonl",
    }
    write_jsonl(paths["students"], (s.to_dict() for s in population.students))
    write_jsonl(paths["candidates"], (c.to_dict() for c in population.candidates))
    write_jsonl(paths["gt"], population.annotations)
    return paths
