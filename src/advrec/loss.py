"""Loss functions with analytic gradients, the two adversarial hardness
models, and the dual (distributionally robust) form of the adversarial loss.

The adversarial contrastive loss for one observed pair with sampled negative
scores s_j, per-negative hardness deltas d_j and weighting k is

    -log[ exp(s+) / (exp(s+) + k * sum_j exp(d_j) * exp(s_j)) ]

evaluated in log-sum-exp form with max subtraction. With all deltas zero it
reduces exactly (same code path) to the plain sampled-softmax contrastive
loss. Hardness deltas are produced by a softmax over raw scores g:
d_j = log(N * softmax(g)_j), so mean(d) = -KL(uniform || p) <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDistribution, DimMismatch, NonFinite
from .numkit import (EmbeddingTable, ScatterIndex, Workspace, adam_step, check_row_grads,
                     einsum_rows, scatter_index, take_rows)
from .rng import substream

# ---------------------------------------------------------------------------
# core contrastive losses
# ---------------------------------------------------------------------------


@dataclass
class LossGrad:
    """Analytic gradients of one loss evaluation.

    d_s_pos = -sum(d_s_neg) (gradient balance); d_s_neg >= 0 elementwise.
    """

    d_s_pos: float
    d_s_neg: np.ndarray
    d_delta: np.ndarray
    loss_value: float


def _validate_pair_inputs(s_pos, s_negs, deltas, k_weight):
    s_pos = np.asarray(s_pos, dtype=np.float64)
    s_negs = np.asarray(s_negs, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if s_negs.shape != deltas.shape:
        raise DimMismatch(f"negatives {s_negs.shape} vs deltas {deltas.shape}")
    if k_weight <= 0:
        raise ValueError("k_weight must be positive")
    if not (np.all(np.isfinite(s_pos)) and np.all(np.isfinite(s_negs))
            and np.all(np.isfinite(deltas))):
        raise NonFinite("loss inputs must be finite")
    return s_pos, s_negs, deltas


def _softmax_core(s_pos: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """loss = logsumexp([s_pos, terms]) - s_pos and the softmax weights,
    computed with max subtraction. s_pos (B,), terms (B, N)."""
    full = np.concatenate([s_pos[:, None], terms], axis=1)
    m = np.max(full, axis=1)
    ez = np.exp(full - m[:, None])
    total = ez.sum(axis=1)
    loss = m + np.log(total) - s_pos
    return loss, ez / total[:, None]


def advinfonce_forward_batch(s_pos, s_negs, deltas, k_weight) -> np.ndarray:
    """Vectorized forward over a batch: s_pos (B,), s_negs/deltas (B, N)."""
    return advinfonce_backward_batch(s_pos, s_negs, deltas, k_weight)[0]


def advinfonce_backward_batch(s_pos, s_negs, deltas, k_weight):
    """Vectorized backward: returns (loss (B,), d_s_pos (B,), d_s_neg (B,N),
    d_delta (B,N)). d_delta equals d_s_neg by the shared exp(d+s) factor."""
    terms = np.log(k_weight) + deltas + s_negs
    loss, w = _softmax_core(np.asarray(s_pos, dtype=np.float64), terms)
    d_pos = w[:, 0] - 1.0
    d_neg = w[:, 1:]
    return loss, d_pos, d_neg, d_neg


def advinfonce_forward(s_pos: float, s_negs, deltas, k_weight: float = 1.0) -> float:
    """Adversarial contrastive loss for one observed pair; > 0 for k >= 1."""
    s_pos, s_negs, deltas = _validate_pair_inputs(s_pos, s_negs, deltas, k_weight)
    return float(advinfonce_forward_batch(s_pos[None], s_negs[None, :], deltas[None, :], k_weight)[0])


def advinfonce_backward(s_pos: float, s_negs, deltas, k_weight: float = 1.0) -> LossGrad:
    """Analytic gradients w.r.t. the positive score, negative scores, and
    hardness deltas. With Z = exp(s+) + k*sum(exp(d_j + s_j)):
    d/ds+ = exp(s+)/Z - 1, d/ds_j = d/dd_j = k*exp(d_j + s_j)/Z."""
    s_pos, s_negs, deltas = _validate_pair_inputs(s_pos, s_negs, deltas, k_weight)
    loss, d_pos, d_neg, d_delta = advinfonce_backward_batch(
        s_pos[None], s_negs[None, :], deltas[None, :], k_weight
    )
    return LossGrad(float(d_pos[0]), d_neg[0], d_delta[0], float(loss[0]))


def infonce_forward(s_pos: float, s_negs, k_weight: float = 1.0) -> float:
    """Sampled-softmax contrastive loss: the zero-hardness special case
    (identical code path, so the reduction is exact)."""
    s_negs = np.asarray(s_negs, dtype=np.float64)
    return advinfonce_forward(s_pos, s_negs, np.zeros_like(s_negs), k_weight)


def infonce_backward(s_pos: float, s_negs, k_weight: float = 1.0) -> LossGrad:
    s_negs = np.asarray(s_negs, dtype=np.float64)
    return advinfonce_backward(s_pos, s_negs, np.zeros_like(s_negs), k_weight)


def dro_form_loss(s_pos: float, s_negs, probs, n: int, k_weight: float = 1.0) -> float:
    """Dual form: -log[exp(s+)/(exp(s+) + k*n*sum_j p_j*exp(s_j))].

    Equals advinfonce_forward with deltas = log(n * p) (checked to 1e-12 by
    the tests); evaluated by an independent route on purpose.
    """
    s_negs = np.asarray(s_negs, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if s_negs.shape != probs.shape:
        raise DimMismatch("probs length must match negatives")
    if abs(float(probs.sum()) - 1.0) > 1e-8:
        raise BadDistribution(f"probabilities sum to {probs.sum()!r}")
    if not (np.isfinite(s_pos) and np.all(np.isfinite(s_negs))):
        raise NonFinite("loss inputs must be finite")
    x = s_negs - s_pos
    a = np.max(x)
    weighted = float(np.sum(probs * np.exp(x - a)))
    # log(1 + k*n*sum(p*e^x)) via logaddexp keeps the extreme tails finite.
    z = np.log(k_weight * n) + a + np.log(weighted)
    return float(np.logaddexp(0.0, z))


def bpr_forward(s_pos: float, s_neg: float) -> float:
    """Pairwise logistic ranking loss -log sigmoid(s_pos - s_neg)."""
    if not (np.isfinite(s_pos) and np.isfinite(s_neg)):
        raise NonFinite("scores must be finite")
    return float(np.logaddexp(0.0, -(s_pos - s_neg)))


def bpr_backward(s_pos: float, s_neg: float) -> LossGrad:
    loss = bpr_forward(s_pos, s_neg)
    # sigmoid(-(s_pos - s_neg)) computed as exp(-softplus(s_pos - s_neg))
    g = float(np.exp(-np.logaddexp(0.0, s_pos - s_neg)))
    return LossGrad(-g, np.array([g]), np.zeros(1), loss)


def ranking_max_bound(s_pos: float, s_negs, deltas) -> tuple[float, float]:
    """Hinge ranking criterion vs its log-sum-exp surrogate.

    lhs = max(0, max_j(s_j - s+ + d_j)), rhs = the k=1 loss; lhs <= rhs
    always because log-sum-exp dominates max.
    """
    s_pos, s_negs, deltas = _validate_pair_inputs(s_pos, s_negs, deltas, 1.0)
    lhs = max(0.0, float(np.max(s_negs - s_pos + deltas)))
    rhs = advinfonce_forward(float(s_pos), s_negs, deltas, 1.0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# hardness models
# ---------------------------------------------------------------------------


@dataclass
class HardnessCache:
    """A hardness forward's arrays, kept for grad_batch, and its workspace
    ws, if any. The embed model keeps its item table, not a gather: its
    grad_batch gathers the rows again, so the table must not change
    between the forward and its grad_batch (adv_step updates it only
    after). The MLP model keeps its (B, N, dim) gather, in ws's GATHER
    buffer if given, which no grad_batch writes. Either way any number of
    grad_batch calls read the same cache."""

    arrays: tuple[np.ndarray, ...]  # the model's own
    ws: Workspace | None


@dataclass
class HardnessBatch:
    """Softmax p over the sampled negatives, deltas = log(N * p) and the
    forward's cache. mean(deltas) = -KL(uniform || p) <= 0."""

    probs: np.ndarray
    deltas: np.ndarray
    cache: HardnessCache


def softmax_hardness(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probs, deltas) from raw scores along the last axis. Deltas go through
    log-softmax (never exp-then-log), so constant g yields deltas exactly 0."""
    g = np.asarray(g, dtype=np.float64)
    m = np.max(g, axis=-1, keepdims=True)
    z = g - m
    ez = np.exp(z)
    total = np.sum(ez, axis=-1, keepdims=True)
    probs = ez / total
    deltas = np.log(g.shape[-1]) + z - np.log(total)
    return probs, deltas


def hardness_grad_from_delta(probs: np.ndarray, d_delta: np.ndarray) -> np.ndarray:
    """Chain dL/d(delta) through delta = log N + log_softmax(g):
    dL/dg_k = dL/dd_k - p_k * sum_j dL/dd_j. Rows of the Jacobian sum to
    zero, so a constant shift of d_delta maps to zero gradient."""
    total = np.sum(d_delta, axis=-1, keepdims=True)
    return d_delta - probs * total


class _TableHardness:
    """Hardness parameters kept as EmbeddingTables in `tables`, one per LAYOUT
    entry and in LAYOUT order, so that both models share one sparse Adam
    update, one copy and one parameter layout for training, diagnostics and
    checkpoints.

    LAYOUT gives each table's (name, symbolic shape). Sizes named after an
    encoder field (n_users, n_items, dim) equal the encoder's; h is the
    model's own width, init(n_users, n_items, dim, seed, h)'s last argument,
    where 0 gives the model's default. A rank-1 entry is a one-row table.
    Each model's forward gives (probs, deltas, HardnessCache), its grad_batch
    takes that cache, d_g and its batch_index, the index it sums through
    (None, and ignored, for dense gradients)."""

    kind: str
    LAYOUT: tuple[tuple[str, tuple[str, ...]], ...]
    reads_encoder: bool  # whether scores read the encoder tables, which min steps write

    def __init__(self, *tables: EmbeddingTable):
        self.tables = tables
        sizes = {}
        for (name, dims), arr in zip(self.LAYOUT, self.param_arrays().values()):
            if any(sizes.setdefault(dim, n) != n for dim, n in zip(dims, arr.shape)):
                raise DimMismatch(f"hardness table {name} {arr.shape} does not fit {dims}")

    @classmethod
    def from_arrays(cls, **named: np.ndarray):
        """A model from one array per LAYOUT name."""
        return cls(*(EmbeddingTable(np.atleast_2d(named[name])) for name, _ in cls.LAYOUT))

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Views of the parameters by LAYOUT name, each of its LAYOUT rank."""
        return {name: t.values.reshape(t.values.shape[2 - len(dims):])
                for t, (name, dims) in zip(self.tables, self.LAYOUT, strict=True)}

    def copy(self):
        return type(self)(*(t.copy() for t in self.tables))

    def apply_grads(self, grads, lr: float, maximize: bool) -> None:
        """One Adam step of learning rate lr per table from grad_batch's
        (ids, grads) per table. Every block is checked before the first
        table moves, so a rejected step leaves the whole model as it was."""
        sign = -1.0 if maximize else 1.0
        updates = [(table, check_row_grads(table, (ids, sign * g)))
                   for table, (ids, g) in zip(self.tables, grads)]
        for table, row_grads in updates:
            adam_step(table, row_grads, lr, checked=True)


class EmbedHardness(_TableHardness):
    """Index-based hardness: g(u, j) = <adv_user[u], adv_item[j]>.

    The user side starts at zero so g is constant (deltas exactly 0) until
    the first adversarial update; the item side starts at small uniform
    values so the user-side gradient is nonzero and training can depart
    from the uniform distribution. (All-zero init on both sides would make
    every adversarial gradient identically zero.)
    """

    kind = "embed"
    LAYOUT = (("adv_user", ("n_users", "h")), ("adv_item", ("n_items", "h")))
    reads_encoder = False

    user_table = property(lambda self: self.tables[0])
    item_table = property(lambda self: self.tables[1])

    @classmethod
    def init(cls, n_users: int, n_items: int, dim: int, seed: int, h: int = 0) -> "EmbedHardness":
        h = h or dim
        return cls(EmbeddingTable.zeros(n_users, h),
                   EmbeddingTable.uniform_init(n_items, h, substream(seed, "init-adv-item")))

    @staticmethod
    def batch_index(users, negatives, n_users: int, n_items: int):
        """The (users, negatives) pair of scatter_index over both tables."""
        return scatter_index(users, n_users), scatter_index(negatives, n_items)

    def forward(self, users, negatives, encoder=None, ws: Workspace | None = None):
        """(probs, deltas, cache) from g = <adv_user[u], adv_item[j]>, through
        einsum_rows: the item rows are gathered a chunk at a time, into ws's
        TERMS buffer if given, and no (B, N, h) block is built."""
        u = take_rows(self.user_table.values, users)
        v = self.item_table.values
        g = einsum_rows("bd,bmd->bm", u, v, negatives, ws)
        return (*softmax_hardness(g), HardnessCache((users, negatives, u, v), ws))

    def grad_batch(self, cache: HardnessCache, d_g,
                   index: tuple[ScatterIndex, ScatterIndex] | None = None):
        """((user_ids, grads), (item_ids, grads)) summed through index, the
        forward ids' batch_index, built here if not given. The item sums are
        a weighted gather of the (B, h) user rows, d_g[b, n] * u[b] per slot,
        and the user sums gather the item rows again from the forward's
        table v, a chunk at a time, both through the forward's ws if given:
        no (B, N, h) block."""
        users, negatives, u, v = cache.arrays
        if index is None:
            index = self.batch_index(users, negatives, self.user_table.rows, self.item_table.rows)
        d_user = einsum_rows("bm,bmd->bd", d_g, v, negatives, cache.ws)
        return index[0].scatter(d_user), index[1].scatter(u, cache.ws, weights=d_g)


class MlpHardness(_TableHardness):
    """Projection-based hardness: one linear layer per side maps the frozen
    encoder embeddings into a small latent space, g = <proj_u(x_u), proj_v(x_j)>.
    Encoder embeddings are constants here; no gradient reaches them."""

    kind = "mlp"
    LAYOUT = (("w_user", ("h", "dim")), ("b_user", ("h",)),
              ("w_item", ("h", "dim")), ("b_item", ("h",)))
    reads_encoder = True

    w_user = property(lambda self: self.tables[0].values)
    b_user = property(lambda self: self.tables[1].values[0])
    w_item = property(lambda self: self.tables[2].values)
    b_item = property(lambda self: self.tables[3].values[0])

    @classmethod
    def init(cls, n_users: int, n_items: int, dim: int, seed: int, h: int = 0) -> "MlpHardness":
        h = h or 4
        return cls(EmbeddingTable.uniform_init(h, dim, substream(seed, "init-mlp-user")),
                   EmbeddingTable.zeros(1, h),
                   EmbeddingTable.uniform_init(h, dim, substream(seed, "init-mlp-item")),
                   EmbeddingTable.zeros(1, h))

    batch_index = staticmethod(lambda *ids_and_sizes: None)  # dense gradients need none

    def forward(self, users, negatives, encoder=None, ws: Workspace | None = None):
        """(probs, deltas, cache) from the encoder rows xu, xi and their
        projections zu, zi; the (B, N, dim) gather xi goes into ws's GATHER."""
        if encoder is None:
            raise ValueError("projection hardness needs the encoder's tables")
        xu = take_rows(encoder.user_table.values, users)
        xi = take_rows(encoder.item_table.values, negatives, ws)
        zu, zi = xu @ self.w_user.T + self.b_user, xi @ self.w_item.T + self.b_item
        g = np.einsum("bl,bnl->bn", zu, zi)
        return (*softmax_hardness(g), HardnessCache((xu, xi, zu, zi), ws))

    def grad_batch(self, cache: HardnessCache, d_g, index=None):
        """Dense parameter gradients, one (arange ids, grads) per table; no index."""
        xu, xi, zu, zi = cache.arrays
        d_zu = np.einsum("bn,bnl->bl", d_g, zi)
        d_zi = d_g[..., None] * zu[:, None, :]
        grads = (np.einsum("bl,bd->ld", d_zu, xu), d_zu.sum(axis=0)[None],
                 np.einsum("bnl,bnd->ld", d_zi, xi), d_zi.sum(axis=(0, 1))[None])
        return tuple((np.arange(len(g)), g) for g in grads)


HARDNESS_MODELS = {model.kind: model for model in (EmbedHardness, MlpHardness)}


def hardness_forward(model, u: int, i: int, negatives, encoder=None) -> HardnessBatch:
    """Sampling probabilities, deltas and cache of one anchor pair's sampled
    negatives; the positive item i names the anchor, but g reads (u, j) only."""
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.size < 1:
        raise DimMismatch("need at least one negative")
    probs, deltas, cache = model.forward(np.array([u]), negatives[None, :], encoder)
    return HardnessBatch(probs[0], deltas[0], cache)


def hardness_backward(model, batch: HardnessBatch, d_delta, u: int, i: int,
                      negatives, encoder=None):
    """Gradients of the loss w.r.t. the hardness parameters, chained through
    the softmax Jacobian, as the model's grad_batch returns them from
    batch's cache: one (ids, grads) per table. u, i, negatives and encoder
    are not read, since the cache holds what the gradients need; they stay
    because criterion 4 of the acceptance tests passes them positionally."""
    d_delta = np.asarray(d_delta, dtype=np.float64)
    if d_delta.shape != batch.deltas.shape:
        raise DimMismatch("d_delta length must match the batch")
    return model.grad_batch(batch.cache, hardness_grad_from_delta(batch.probs, d_delta)[None])
