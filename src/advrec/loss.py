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
from .numkit import AdamHyper, EmbeddingTable, adam_step, scatter_rows
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
    terms = np.log(k_weight) + deltas + s_negs
    loss, _ = _softmax_core(np.asarray(s_pos, dtype=np.float64), terms)
    return loss


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
class HardnessBatch:
    """Raw scores g, their softmax p over the sampled negatives, and
    deltas = log(N * p). mean(deltas) = -KL(uniform || p) <= 0."""

    raw_scores: np.ndarray
    probs: np.ndarray
    deltas: np.ndarray


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
    where 0 gives the model's default. A rank-1 entry is a one-row table."""

    kind: str
    LAYOUT: tuple[tuple[str, tuple[str, ...]], ...]

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

    def hardness(self, users, negatives, encoder=None) -> tuple[np.ndarray, np.ndarray]:
        """(probs, deltas) over each row's sampled negatives."""
        return softmax_hardness(self.raw_scores_batch(users, negatives, encoder))

    def apply_grads(self, grads, hyper: AdamHyper, maximize: bool) -> None:
        """One Adam step per table from grad_batch's (ids, grads) per table."""
        sign = -1.0 if maximize else 1.0
        for table, (ids, g) in zip(self.tables, grads):
            adam_step(table, (ids, sign * g), hyper)


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

    user_table = property(lambda self: self.tables[0])
    item_table = property(lambda self: self.tables[1])

    @classmethod
    def init(cls, n_users: int, n_items: int, dim: int, seed: int, h: int = 0) -> "EmbedHardness":
        h = h or dim
        user_table = EmbeddingTable.zeros(n_users, h)
        item_table = EmbeddingTable.uniform_init(n_items, h, substream(seed, "init-adv-item"))
        return cls(user_table, item_table)

    def raw_scores_batch(self, users: np.ndarray, negatives: np.ndarray, encoder=None) -> np.ndarray:
        u = self.user_table.values[users]
        v = self.item_table.values[negatives]
        return np.einsum("bd,bnd->bn", u, v)

    def grad_batch(self, users, negatives, d_g, encoder=None):
        """Parameter gradients as ((user_ids, grads), (item_ids, grads))."""
        u = self.user_table.values[users]
        v = self.item_table.values[negatives]
        d_user = np.einsum("bn,bnd->bd", d_g, v)
        d_item = d_g[..., None] * u[:, None, :]
        return (scatter_rows(users, d_user, self.user_table.rows),
                scatter_rows(negatives, d_item, self.item_table.rows))


class MlpHardness(_TableHardness):
    """Projection-based hardness: one linear layer per side maps the frozen
    encoder embeddings into a small latent space, g = <proj_u(x_u), proj_v(x_j)>.
    Encoder embeddings are constants here; no gradient reaches them."""

    kind = "mlp"
    LAYOUT = (("w_user", ("h", "dim")), ("b_user", ("h",)),
              ("w_item", ("h", "dim")), ("b_item", ("h",)))

    w_user = property(lambda self: self.tables[0].values)
    b_user = property(lambda self: self.tables[1].values[0])
    w_item = property(lambda self: self.tables[2].values)
    b_item = property(lambda self: self.tables[3].values[0])

    @classmethod
    def init(cls, n_users: int, n_items: int, dim: int, seed: int, h: int = 0) -> "MlpHardness":
        h = h or 4
        bound = 0.5 / np.sqrt(dim)
        rng_u = substream(seed, "init-mlp-user")
        rng_i = substream(seed, "init-mlp-item")
        return cls.from_arrays(
            w_user=rng_u.uniform(-bound, bound, size=(h, dim)),
            b_user=np.zeros(h),
            w_item=rng_i.uniform(-bound, bound, size=(h, dim)),
            b_item=np.zeros(h),
        )

    def _inputs(self, users, negatives, encoder):
        if encoder is None:
            raise ValueError("projection hardness needs the encoder's tables")
        xu = encoder.user_table.values[users]
        xi = encoder.item_table.values[negatives]
        return xu, xi

    def raw_scores_batch(self, users, negatives, encoder=None) -> np.ndarray:
        xu, xi = self._inputs(users, negatives, encoder)
        zu = xu @ self.w_user.T + self.b_user
        zi = xi @ self.w_item.T + self.b_item
        return np.einsum("bl,bnl->bn", zu, zi)

    def grad_batch(self, users, negatives, d_g, encoder=None):
        """Dense parameter gradients, one (arange ids, grads) per table."""
        xu, xi = self._inputs(users, negatives, encoder)
        zu = xu @ self.w_user.T + self.b_user
        zi = xi @ self.w_item.T + self.b_item
        d_zu = np.einsum("bn,bnl->bl", d_g, zi)
        d_zi = d_g[..., None] * zu[:, None, :]
        grads = (np.einsum("bl,bd->ld", d_zu, xu), d_zu.sum(axis=0)[None],
                 np.einsum("bnl,bnd->ld", d_zi, xi), d_zi.sum(axis=(0, 1))[None])
        return tuple((np.arange(len(g)), g) for g in grads)


HARDNESS_MODELS = {model.kind: model for model in (EmbedHardness, MlpHardness)}


def hardness_forward(model, u: int, i: int, negatives, encoder=None) -> HardnessBatch:
    """Raw scores, sampling probabilities, and deltas for one anchor pair's
    sampled negatives. The positive item i identifies the anchor; both score
    functions depend on (u, j) only."""
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.size < 1:
        raise DimMismatch("need at least one negative")
    g = model.raw_scores_batch(np.array([u]), negatives[None, :], encoder)[0]
    probs, deltas = softmax_hardness(g)
    return HardnessBatch(g, probs, deltas)


def hardness_backward(model, batch: HardnessBatch, d_delta, u: int, i: int,
                      negatives, encoder=None):
    """Gradients of the loss w.r.t. the hardness parameters, chained through
    the softmax Jacobian, as the model's grad_batch returns them: one
    (ids, grads) per table."""
    d_delta = np.asarray(d_delta, dtype=np.float64)
    if d_delta.shape != batch.deltas.shape:
        raise DimMismatch("d_delta length must match the batch")
    negatives = np.asarray(negatives, dtype=np.int64)
    d_g = hardness_grad_from_delta(batch.probs, d_delta)
    return model.grad_batch(np.array([u]), negatives[None, :], d_g[None, :], encoder)
