"""Match college students with STEM role models from social-media data.

The package mirrors the end-to-end flow: ingest Twitter-shaped student
records and LinkedIn-shaped candidate records, weakly label and classify
students as college students, filter candidates down to STEM role models,
resolve demographic and interest profiles, rank role models per student
by a fuzzy attribute-similarity score, and deliver one static HTML page
per student.  A seeded synthetic generator supports desk-scale runs.
"""

from .attributes import ResolvedAttribute, build_profile, load_profiles, write_profiles
from .classifier import (
    ClassifierError,
    ClassifierModel,
    FeatureVector,
    TrainConfig,
    cross_validate,
    extract_features,
    infer,
    load_model,
    save_model,
    train,
)
from .labeling import (
    COLLEGE,
    NON_COLLEGE,
    UNLABELED,
    LabelRule,
    WeakLabel,
    default_rules,
    label_corpus,
    label_student,
    load_rules,
)
from .matching import (
    DEFAULT_TOP10_CITIES,
    AccuracyReport,
    CandidateIndex,
    GroundTruthAnnotation,
    MatchError,
    MatchResult,
    evaluate,
    is_correct_match,
    load_annotations,
    load_matches,
    match_corpus,
    write_matches,
)
from .pages import PageSpec, build_page_spec, render_page, write_pages
from .pipeline import PipelineConfig, PipelineError, PipelineResult, run_pipeline
from .records import (
    AttributeProfile,
    CandidateRecord,
    LoadResult,
    PredictorOutput,
    RecordError,
    StudentRecord,
    load_candidates,
    load_students,
)
from .rolemodels import (
    IndustryTaxonomy,
    RoleModelDecision,
    StemMajorList,
    default_majors,
    default_taxonomy,
    filter_role_models,
    is_role_model,
)
from .similarity import (
    DEFAULT_FUZZY_THRESHOLD,
    SimilarityBreakdown,
    combined_score,
    interest_similarity,
    lev_similarity,
    levenshtein,
    location_similarity,
)
from .synthetic import SynthConfig, SynthError, generate_population, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AttributeProfile",
    "COLLEGE",
    "CandidateIndex",
    "CandidateRecord",
    "ClassifierError",
    "ClassifierModel",
    "DEFAULT_FUZZY_THRESHOLD",
    "DEFAULT_TOP10_CITIES",
    "FeatureVector",
    "GroundTruthAnnotation",
    "IndustryTaxonomy",
    "LabelRule",
    "LoadResult",
    "MatchError",
    "MatchResult",
    "NON_COLLEGE",
    "PageSpec",
    "PipelineConfig",
    "PipelineError",
    "PipelineResult",
    "PredictorOutput",
    "RecordError",
    "ResolvedAttribute",
    "RoleModelDecision",
    "SimilarityBreakdown",
    "StemMajorList",
    "StudentRecord",
    "SynthConfig",
    "SynthError",
    "TrainConfig",
    "UNLABELED",
    "WeakLabel",
    "build_page_spec",
    "build_profile",
    "combined_score",
    "cross_validate",
    "default_majors",
    "default_rules",
    "default_taxonomy",
    "evaluate",
    "extract_features",
    "filter_role_models",
    "generate_population",
    "generate_synthetic",
    "infer",
    "interest_similarity",
    "is_correct_match",
    "is_role_model",
    "label_corpus",
    "label_student",
    "lev_similarity",
    "levenshtein",
    "load_annotations",
    "load_candidates",
    "load_matches",
    "load_model",
    "load_profiles",
    "load_rules",
    "load_students",
    "location_similarity",
    "match_corpus",
    "render_page",
    "run_pipeline",
    "save_model",
    "train",
    "write_matches",
    "write_pages",
    "write_profiles",
]
