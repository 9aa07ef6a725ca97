"""Alternating min-max training loop: minimize the adversarial contrastive
loss over encoder parameters, periodically maximize it over hardness
parameters, with early stopping on validation Recall@K.

Phases are strictly alternated: a minimization step never touches hardness
parameters and an adversarial step never touches the encoder. Strategies adv
and reverse train a hardness model by ascent and by descent; rand and none
train none and set each delta to a uniform(-0.5, 0.5) draw or to zero.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import InteractionSet, sample_negatives
from .encoder import (BACKBONES, Encoder, batch_backward, batch_forward, build_encoder,
                      representations)
from .errors import NonFinite, SkippedAdvStep
from .evaluation import _block_hardness, evaluate_split
from .loss import HARDNESS_MODELS, advinfonce_backward_batch, hardness_grad_from_delta
from .numkit import ScatterIndex, Workspace, adam_step, check_row_grads, scatter_index
from .rng import check_seed, substream

STRATEGIES = ("adv", "reverse", "rand", "none")
HARDNESS_STRATEGIES = ("adv", "reverse")  # the strategies that build a hardness model
DIAG_ANCHORS = 256  # hardness_divergence's anchor pairs: one _block_hardness block


@dataclass
class TrainConfig:
    """Every knob of the training procedure and evaluation protocol.

    Defaults target full-scale corpora (millions of interactions); shrink
    batch_size, n_negatives and max_epochs for desk-scale runs.
    """

    lr: float = 1e-3
    lr_adv: float = 5e-5
    batch_size: int = 2048
    n_negatives: int = 128
    k_weight: float = 64.0
    tau: float = 0.09
    e_adv_max: int = 7
    t_adv_interval: int = 5
    max_epochs: int = 100
    eval_every: int = 1
    patience: int = 20
    hardness_strategy: str = "adv"
    seed: int = 0
    # artifact plumbing beyond the core procedure
    backbone: str = "mf"            # "mf" | "lightgcn"
    embed_dim: int = 64
    gcn_layers: int = 2
    hardness_kind: str = "embed"    # a key of loss.HARDNESS_MODELS
    hardness_dim: int = 0           # hardness width h; 0: the model's default
    k_eval: int = 20

    def __post_init__(self):
        for name in ("lr", "lr_adv", "tau", "k_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("batch_size", "n_negatives", "max_epochs", "eval_every",
                     "t_adv_interval", "embed_dim", "k_eval", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("e_adv_max", "gcn_layers", "hardness_dim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        check_seed(self.seed)
        if self.hardness_strategy not in STRATEGIES:
            raise ValueError(f"hardness_strategy must be one of {STRATEGIES}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}")
        if self.hardness_kind not in tuple(HARDNESS_MODELS):
            raise ValueError(f"hardness_kind must be one of {tuple(HARDNESS_MODELS)}")


@dataclass
class Batch:
    users: np.ndarray       # (B,)
    pos_items: np.ndarray   # (B,)
    negatives: np.ndarray   # (B, N)
    key: tuple[int, int] | None = None  # (epoch, b) from iter_batches; keys rand deltas
    # A pass's frozen half, where iter_batches attached it; valid only
    # within that pass. Min pass: _batch_deltas' (probs, deltas).
    # Adversarial pass: the frozen encoder's (B, 1 + N) scores.
    hardness: tuple[np.ndarray | None, np.ndarray] | None = None
    scores: np.ndarray | None = None
    # The scatter index iter_batches built for the pass: score_index, the
    # (users, items) scatter_index pair of min_step's (B, 1 + N) block, or
    # hardness_index, the hardness model's batch_index (None for MLP). A
    # step builds the one it needs itself when the batch lacks it.
    score_index: tuple[ScatterIndex, ScatterIndex] | None = None
    hardness_index: tuple[ScatterIndex, ScatterIndex] | None = None


@dataclass
class TrainState:
    encoder: Encoder
    hardness: object | None
    cfg: TrainConfig
    epoch: int = 0
    e_adv: int = 0          # completed adversarial epochs; never exceeds e_adv_max
    best_metric: float = -np.inf
    best_epoch: int = -1
    evals_since_improve: int = 0
    history: list = field(default_factory=list)
    best: tuple[Encoder, object | None] | None = None  # (encoder, hardness) at best_epoch
    # The steps' block-sized arrays (numkit.Workspace), on the main thread
    # only; train_epoch empties it when each pass ends.
    workspace: Workspace = field(default_factory=Workspace, repr=False, compare=False)


@dataclass
class TrainResult:
    state: TrainState
    history: list

    @property
    def best(self) -> tuple[Encoder, object | None]:
        """The model of the best validation, or the final one if none ran."""
        return self.state.best or (self.state.encoder, self.state.hardness)


def build_hardness(cfg: TrainConfig, n_users: int, n_items: int):
    if cfg.hardness_strategy not in HARDNESS_STRATEGIES:
        return None
    return HARDNESS_MODELS[cfg.hardness_kind].init(n_users, n_items, cfg.embed_dim, cfg.seed,
                                                   h=cfg.hardness_dim)


def init_state(dataset: InteractionSet, cfg: TrainConfig) -> TrainState:
    enc = build_encoder(
        cfg.backbone, dataset.n_users, dataset.n_items, cfg.embed_dim,
        cfg.tau, cfg.seed, layers=cfg.gcn_layers, train_pairs=dataset.train_pairs,
    )
    return TrainState(encoder=enc,
                      hardness=build_hardness(cfg, dataset.n_users, dataset.n_items),
                      cfg=cfg)


def iter_batches(dataset: InteractionSet, cfg: TrainConfig, epoch: int, phase: str,
                 frozen=None):
    """Deterministic epoch iterator: a seeded shuffle of the train pairs,
    and for batch b negatives from substream(seed, phase-neg, epoch, b).
    Each batch carries its key (epoch, b) and its pass's scatter index
    (Batch.score_index or the hardness model's batch_index); frozen(batch),
    if given, attaches its pass's frozen half (_min_half, _adv_half).

    Batch b + 1 is prepared on one worker thread while the caller runs step
    b; the first batch of a pass is prepared in the calling thread. Each
    batch draws only from its own substreams and frozen reads nothing a
    step of the same pass writes, so the bytes equal those of preparing
    each batch in turn inside its step.

    An error raised on the worker surfaces when its batch is requested. The
    worker is shut down, after the batch in flight, when the pass ends, when
    the iterator is closed early (as the interpreter does when a caller's
    exception drops it) and when an exception unwinds through it.
    """
    pairs = dataset.train_pairs
    perm = substream(cfg.seed, f"{phase}-shuffle", epoch).permutation(len(pairs))
    starts = range(0, len(pairs), cfg.batch_size)
    hardness_index = HARDNESS_MODELS[cfg.hardness_kind].batch_index

    def prepare(b: int) -> Batch:
        chunk = pairs[perm[starts[b]:starts[b] + cfg.batch_size]]
        rng = substream(cfg.seed, f"{phase}-neg", epoch, b)
        users, pos_items = chunk[:, 0], chunk[:, 1]
        negs = sample_negatives(dataset, users, cfg.n_negatives, rng).negatives
        batch = Batch(users, pos_items, negs, key=(epoch, b))
        if phase == "min":
            block = np.concatenate([pos_items[:, None], negs], axis=1)
            batch.score_index = (scatter_index(users, dataset.n_users),
                                 scatter_index(block, dataset.n_items))
        else:
            batch.hardness_index = hardness_index(users, negs, dataset.n_users, dataset.n_items)
        return batch if frozen is None else frozen(batch)

    with ThreadPoolExecutor(max_workers=1) as worker:
        for b in range(len(starts)):
            batch = ahead.result() if b else prepare(0)
            if b + 1 < len(starts):
                ahead = worker.submit(prepare, b + 1)
            yield batch


def _batch_deltas(state: TrainState, batch: Batch, ws: Workspace | None = None):
    """Per-negative (probs, deltas, cache) for the configured strategy: the
    hardness model's forward (ws as there); else (None, deltas, None), drawn
    for rand from substream(seed, rand-delta, *batch.key), zeros for none."""
    if state.hardness is not None:
        return state.hardness.forward(batch.users, batch.negatives, state.encoder, ws)
    if state.cfg.hardness_strategy == "none":
        return None, np.zeros(batch.negatives.shape), None
    if batch.key is None:
        raise ValueError("a rand batch carries its deltas' key (epoch, b), as iter_batches sets it")
    rng = substream(state.cfg.seed, "rand-delta", *batch.key)
    return None, rng.uniform(-0.5, 0.5, size=batch.negatives.shape), None


def _batch_scores(state: TrainState, batch: Batch, reps=None, ws: Workspace | None = None):
    """The encoder's (scores, cache) of each user against its positive and
    negatives, from its representations reps if given, through the batch's
    score_index if it has one; ws, given by a step, holds the item rows."""
    items = np.concatenate([batch.pos_items[:, None], batch.negatives], axis=1)
    return batch_forward(state.encoder, batch.users, items, reps, batch.score_index, ws)


def _min_half(state: TrainState):
    """iter_batches' frozen for a min pass: attaches each batch's (probs,
    deltas); None where the hardness model reads the encoder tables, which
    the min steps write."""
    if state.hardness is not None and state.hardness.reads_encoder:
        return None
    return lambda batch: replace(batch, hardness=_batch_deltas(state, batch)[:2])


def _adv_half(state: TrainState, reps):
    """iter_batches' frozen for an adversarial pass, and mean_batch_loss's:
    attaches each batch's scores under the frozen encoder, from its
    representations reps computed before the pass."""
    return lambda batch: replace(batch, scores=_batch_scores(state, batch, reps)[0])


def _batch_loss(state: TrainState, batch: Batch, ws: Workspace | None = None):
    """The one AdvInfoNCE evaluation of a batch, shared by the min step, the
    adversarial step and the loss probe. A half the batch carries is used as
    it is; the rest is computed here, through the step's workspace ws if
    given. Returns (loss (B,), d_pos, d_neg, d_delta, probs, score cache,
    hardness cache); a cache is None for its carried half."""
    if batch.scores is None:
        scores, cache = _batch_scores(state, batch, ws=ws)
    else:
        scores, cache = batch.scores, None
    if batch.hardness is None:
        probs, deltas, hardness_cache = _batch_deltas(state, batch, ws)
    else:
        (probs, deltas), hardness_cache = batch.hardness, None
    loss_vec, d_pos, d_neg, d_delta = advinfonce_backward_batch(
        scores[:, 0], scores[:, 1:], deltas, state.cfg.k_weight
    )
    if not np.all(np.isfinite(loss_vec)):
        raise NonFinite("non-finite contrastive loss")
    return loss_vec, d_pos, d_neg, d_delta, probs, cache, hardness_cache


def min_step(state: TrainState, batch: Batch) -> float:
    """One encoder update (mean-loss gradient over the batch); hardness
    parameters are read-only here. Block-sized arrays go into the state's
    workspace. Both gradient blocks are checked before the first table
    moves, so a rejected step leaves the encoder as it was. Returns the
    batch mean loss."""
    loss_vec, d_pos, d_neg, _, _, cache, _ = _batch_loss(state, batch, state.workspace)
    upstream = np.concatenate([d_pos[:, None], d_neg], axis=1) / len(batch.users)
    enc = state.encoder
    u_grads, i_grads = batch_backward(enc, cache, upstream)
    updates = [(table, check_row_grads(table, row_grads))
               for table, row_grads in ((enc.user_table, u_grads), (enc.item_table, i_grads))]
    for table, row_grads in updates:
        adam_step(table, row_grads, state.cfg.lr, checked=True)
    return float(loss_vec.mean())


def adv_step(state: TrainState, batch: Batch) -> float:
    """One hardness update on a frozen encoder: gradient ascent for the
    adversarial strategy, descent for the reversed ablation. Returns the
    batch mean loss evaluated before the update. Block-sized arrays go into
    the state's workspace. The gradients come from the hardness forward's
    cache, so a min pass's carried (probs, deltas) are not used."""
    cfg = state.cfg
    if state.hardness is None:
        raise SkippedAdvStep("strategy has no trainable hardness")
    if state.e_adv >= cfg.e_adv_max:
        raise SkippedAdvStep("adversarial epoch budget exhausted")
    loss_vec, _, _, d_delta, probs, _, cache = _batch_loss(
        state, replace(batch, hardness=None), state.workspace)
    d_g = hardness_grad_from_delta(probs, d_delta / len(batch.users))
    grads = state.hardness.grad_batch(cache, d_g, batch.hardness_index)
    state.hardness.apply_grads(grads, cfg.lr_adv, maximize=(cfg.hardness_strategy == "adv"))
    return float(loss_vec.mean())


def mean_batch_loss(state: TrainState, batches: list[Batch]) -> float:
    """Mean loss over fixed batches without touching any parameter."""
    with_scores = _adv_half(state, representations(state.encoder))
    total, count = 0.0, 0
    for batch in batches:
        loss_vec = _batch_loss(state, with_scores(batch))[0]
        total += float(loss_vec.sum())
        count += len(loss_vec)
    return total / max(count, 1)


def hardness_divergence(state: TrainState, dataset: InteractionSet, epoch: int):
    """(mean KL(uniform || p), max deviation from 1/N) over DIAG_ANCHORS seeded
    anchor pairs; (0, 0) without a hardness model; ValueError on an empty train."""
    cfg = state.cfg
    if state.hardness is None:
        return 0.0, 0.0
    rng = substream(cfg.seed, "diag", epoch)
    train = dataset.train_pairs
    anchors = train[rng.integers(0, len(train), size=min(DIAG_ANCHORS, len(train)))]
    [(_, probs, deltas)] = _block_hardness(state.hardness, state.encoder, dataset,
                                           anchors[:, 0], cfg.n_negatives, rng)
    kl_mean = float(np.mean(-deltas.mean(axis=1)))
    eps_proxy = float(np.max(np.abs(probs - 1.0 / cfg.n_negatives)))
    return kl_mean, eps_proxy


def train_epoch(state: TrainState, dataset: InteractionSet) -> dict | None:
    """One epoch on state: a pass of minimization steps; every t_adv_interval
    epochs (while budget remains) a full adversarial pass; every eval_every
    epochs, given validation pairs, an evaluation that updates the best
    snapshot and the patience count. Returns its record, or None."""
    cfg = state.cfg
    state.epoch += 1
    epoch = state.epoch
    epoch_loss, n_batches = 0.0, 0
    with state.workspace:  # emptied when the pass ends
        for batch in iter_batches(dataset, cfg, epoch, "min", _min_half(state)):
            epoch_loss += min_step(state, batch)
            n_batches += 1

    if (state.hardness is not None and epoch % cfg.t_adv_interval == 0
            and state.e_adv < cfg.e_adv_max):
        frozen = _adv_half(state, representations(state.encoder))
        with state.workspace:
            for batch in iter_batches(dataset, cfg, epoch, "adv", frozen):
                adv_step(state, batch)
        state.e_adv += 1

    if epoch % cfg.eval_every or len(dataset.valid_pairs) == 0:
        return None
    report = evaluate_split(state.encoder, dataset, "valid", cfg.k_eval)
    kl_mean, eps_proxy = hardness_divergence(state, dataset, epoch)
    record = {
        "epoch": epoch,
        **report.record("valid"),
        "loss": epoch_loss / max(n_batches, 1),
        "kl_mean": kl_mean,
        "eps_proxy": eps_proxy,
        "e_adv": state.e_adv,
    }
    state.history.append(record)
    if report.recall > state.best_metric:
        state.best_metric = report.recall
        state.best_epoch = epoch
        state.evals_since_improve = 0
        state.best = (state.encoder.copy(),
                      state.hardness.copy() if state.hardness is not None else None)
    else:
        state.evals_since_improve += 1
    return record


def run_training(dataset: InteractionSet, cfg: TrainConfig, log_fn=None) -> TrainResult:
    """Full training: train_epoch from init_state until max_epochs, or until
    `patience` evaluations in a row bring no Recall improvement. Each
    evaluation's record also goes to log_fn."""
    state = init_state(dataset, cfg)
    while state.epoch < cfg.max_epochs and state.evals_since_improve < cfg.patience:
        record = train_epoch(state, dataset)
        if record is not None and log_fn is not None:
            log_fn(record)
    return TrainResult(state=state, history=state.history)
