"""Weakly supervised temporal action segmentation via a global prototype bank.

Videos labeled only with a high-level activity class train a bank of
action prototypes through activity classification; frame labelings fall
out of the frame-to-prototype affinities and are scored through video-,
activity-, and corpus-level Hungarian matching.
"""

from .autodiff import Tape, Var, finite_diff_check
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import Corpus, CorpusError, CorpusSpec, FeatureSequence, generate_corpus, read_corpus, write_corpus
from .inference import background_mask, gaussian_smooth, naive_labels, recognize_activity, segment_corpus, viterbi_decode
from .losses import LossConfig
from .matching import (
    AssignmentReport,
    Contingency,
    MatchResult,
    VideoEval,
    build_contingency,
    f1_segments,
    hungarian_solve,
    kl_action_distribution,
    kl_prototype_sharing,
    match_at_level,
)
from .model import ForwardOutputs, ModelConfig, ModelParameters, forward, infer, init_parameters
from .trainer import AdamState, NonFiniteLossError, TrainConfig, TrainResult, adam_step, train

__version__ = "0.1.0"
