"""Training and evaluation engine for implicit-feedback Top-K recommendation
with an adversarially weighted contrastive loss."""

from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (
    InteractionSet,
    NegativeSample,
    SyntheticSpec,
    gamma_quotas,
    gamma_resplit,
    gamma_split,
    generate_synthetic,
    load_interactions,
    read_pairs,
    sample_negatives,
    write_pairs,
)
from .encoder import Encoder, build_encoder, score, score_backward
from .evaluation import (
    MetricReport,
    RankResult,
    alignment_uniformity,
    dcg_bound_check,
    evaluate_split,
    fn_identification_rate,
    hardness_popularity_profile,
    rank_all,
    topk_metrics,
)
from .loss import (
    EmbedHardness,
    HardnessBatch,
    LossGrad,
    MlpHardness,
    advinfonce_backward,
    advinfonce_forward,
    bpr_backward,
    bpr_forward,
    dro_form_loss,
    hardness_backward,
    hardness_forward,
    infonce_backward,
    infonce_forward,
    ranking_max_bound,
)
from .numkit import (
    EmbeddingTable,
    NormAdjacency,
    adam_step,
    cosine_score,
    cosine_score_grad,
    propagate,
    propagate_backward,
)
from .trainer import TrainConfig, TrainResult, adv_step, min_step, run_training

__version__ = "0.1.0"
