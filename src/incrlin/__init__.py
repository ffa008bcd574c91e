"""Incremental linear classifiers over frozen feature vectors.

Extends a trained linear classifier with new classes from few examples while
anchoring old rows and regularizing new rows toward the base-weight subspace,
a semantic combination of base rows, or a learned embedding-to-weight map.
"""

from .datamodel import (
    Batch,
    ClassRegistry,
    EmbeddingTable,
    FeatureStore,
    LinearMap,
    OrthonormalBasis,
    RunConfig,
    SessionStream,
    WeightMatrix,
    update_memory,
)
from .errors import EngineError
from .linalg import fit_least_squares, orthonormal_basis, project
from .objectives import Objective, ObjectiveTerms, semantic_targets
from .protocol import (
    Episode,
    EpisodeResult,
    SessionResult,
    SingleSessionResult,
    delta_metric,
    predict,
    run_multi_session,
    run_single_session,
    sample_episode,
)
from .synth import SynthSpec, generate, incremental_split
from .trainer import TrainReport, fine_tune_stack, init_novel_weights, train_base

__version__ = "0.1.0"

__all__ = [
    "Batch", "ClassRegistry", "EmbeddingTable", "FeatureStore", "LinearMap",
    "OrthonormalBasis", "RunConfig", "SessionStream",
    "WeightMatrix", "update_memory", "EngineError",
    "fit_least_squares", "orthonormal_basis", "project",
    "Objective", "ObjectiveTerms", "semantic_targets",
    "Episode", "EpisodeResult", "SessionResult", "SingleSessionResult",
    "delta_metric", "predict",
    "run_multi_session", "run_single_session", "sample_episode",
    "SynthSpec", "generate", "incremental_split",
    "TrainReport", "fine_tune_stack", "init_novel_weights", "train_base",
]
