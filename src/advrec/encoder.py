"""CF backbones: id-embedding (MF) and light graph-convolution scoring.

Both produce temperature-scaled cosine scores. The graph backbone propagates
layer-0 embeddings over the symmetric-normalized user-item bipartite graph
built from train positives only and averages layers 0..L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimMismatch, IdOutOfRange, ZeroNormError
from .numkit import (
    NORM_FLOOR,
    EmbeddingTable,
    NormAdjacency,
    compact_ids,
    propagate,
    propagate_backward,
    scatter_rows,
    segment_sum,
)
from .rng import substream

MF = "mf"
LIGHTGCN = "lightgcn"


@dataclass
class Encoder:
    kind: str
    user_table: EmbeddingTable
    item_table: EmbeddingTable
    tau: float
    layers: int = 0
    adj: NormAdjacency | None = None

    def __post_init__(self):
        if self.kind not in (MF, LIGHTGCN):
            raise ValueError(f"unknown backbone {self.kind!r}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.user_table.dim != self.item_table.dim:
            raise DimMismatch("user and item tables must share dimension")

    @property
    def n_users(self) -> int:
        return self.user_table.rows

    @property
    def n_items(self) -> int:
        return self.item_table.rows

    @property
    def dim(self) -> int:
        return self.user_table.dim

    def copy(self) -> "Encoder":
        """Independent copy of the parameter tables; the adjacency is shared."""
        return replace(self, user_table=self.user_table.copy(),
                       item_table=self.item_table.copy())


def build_norm_adjacency(n_users: int, n_items: int, train_pairs) -> NormAdjacency:
    """Bipartite adjacency over nodes [0, n_users) users and
    [n_users, n_users + n_items) items, train positives only."""
    pairs = np.asarray(train_pairs, dtype=np.int64).reshape(-1, 2)
    edges = np.stack([pairs[:, 0], pairs[:, 1] + n_users], axis=1)
    return NormAdjacency.from_undirected_edges(n_users + n_items, edges)


def build_encoder(
    kind: str,
    n_users: int,
    n_items: int,
    dim: int,
    tau: float,
    seed: int,
    layers: int = 2,
    train_pairs=None,
) -> Encoder:
    user_table = EmbeddingTable.uniform_init(n_users, dim, substream(seed, "init-user"))
    item_table = EmbeddingTable.uniform_init(n_items, dim, substream(seed, "init-item"))
    adj = None
    if kind == LIGHTGCN:
        if train_pairs is None:
            raise ValueError("graph backbone requires train pairs")
        adj = build_norm_adjacency(n_users, n_items, train_pairs)
    else:
        layers = 0
    return Encoder(kind=kind, user_table=user_table, item_table=item_table,
                   tau=tau, layers=layers, adj=adj)


def representations(enc: Encoder) -> tuple[np.ndarray, np.ndarray]:
    """Final user/item representations (propagated for the graph backbone,
    raw table rows for MF). Recomputed per call; a caller that holds the
    encoder fixed over many batches computes them once and passes them on."""
    if enc.kind == MF or enc.layers == 0:
        return enc.user_table.values, enc.item_table.values
    stacked = np.concatenate([enc.user_table.values, enc.item_table.values], axis=0)
    out = propagate(stacked, enc.adj, enc.layers)
    return out[: enc.n_users], out[enc.n_users:]


@dataclass
class _ScoreCache:
    users: np.ndarray      # (B,)
    items: np.ndarray      # (B, M)
    u_rep: np.ndarray      # (B, d)
    i_rep: np.ndarray      # (B, M, d)
    u_norm: np.ndarray     # (B,)
    i_norm: np.ndarray     # (B, M)
    cos: np.ndarray        # (B, M)
    item_ids: tuple[np.ndarray, np.ndarray]  # compact_ids(items, n_items)


def _check_ids(enc: Encoder, users, items) -> None:
    if users.size and (users.min() < 0 or users.max() >= enc.n_users):
        raise IdOutOfRange("user id out of range")
    if items.size and (items.min() < 0 or items.max() >= enc.n_items):
        raise IdOutOfRange("item id out of range")


def batch_forward(
    enc: Encoder,
    users: np.ndarray,
    items: np.ndarray,
    reps: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, _ScoreCache]:
    """Scores (B, M) for item block items of shape (B, M) against users (B,).
    Each distinct item's norm is computed once; the cache keeps the items'
    compaction for the backward pass."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    _check_ids(enc, users, items)
    user_reps, item_reps = reps if reps is not None else representations(enc)
    u_rep = user_reps[users]
    i_rep = item_reps[items]
    u_norm = np.linalg.norm(u_rep, axis=-1)
    item_ids = compact_ids(items, enc.n_items)
    unique_norm = np.linalg.norm(item_reps[item_ids[0]], axis=-1)
    if np.any(u_norm <= NORM_FLOOR) or np.any(unique_norm <= NORM_FLOOR):
        raise ZeroNormError("representation norm below 1e-12")
    i_norm = unique_norm[item_ids[1]]
    cos = np.einsum("bd,bmd->bm", u_rep, i_rep) / (u_norm[:, None] * i_norm)
    scores = cos / enc.tau
    return scores, _ScoreCache(users, items, u_rep, i_rep, u_norm, i_norm, cos, item_ids)


def batch_backward(
    enc: Encoder,
    cache: _ScoreCache,
    upstream: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Row gradients ((user_ids, grads), (item_ids, grads)) for dL/dscores
    upstream of shape (B, M), pushed through the cosine and, for the graph
    backbone, back through propagation. Ids are unique, grads accumulated.
    """
    up = np.asarray(upstream, dtype=np.float64) / enc.tau
    c = cache
    # d cos / d i_rep and d cos / d u_rep, scaled by upstream.
    coef_i = up / (c.u_norm[:, None] * c.i_norm)
    d_i = coef_i[..., None] * c.u_rep[:, None, :]
    d_i -= (up * c.cos / c.i_norm**2)[..., None] * c.i_rep
    d_u = np.einsum("bm,bmd->bd", coef_i, c.i_rep) \
        - (np.sum(up * c.cos, axis=1) / c.u_norm**2)[:, None] * c.u_rep

    if enc.kind == MF or enc.layers == 0:
        return (scatter_rows(c.users, d_u, enc.n_users),
                scatter_rows(c.items, d_i, enc.n_items, c.item_ids))

    # Graph backbone: scatter onto node representations, then one linear
    # backward pass through the propagation. User and item nodes are disjoint
    # halves, so each half is summed on its own, its terms in input order.
    node_grad = np.concatenate([segment_sum(c.users, d_u, enc.n_users),
                                segment_sum(c.items, d_i, enc.n_items)])
    layer0_grad = propagate_backward(node_grad, enc.adj, enc.layers)
    nz = np.flatnonzero(np.any(layer0_grad != 0.0, axis=1))
    u_ids = nz[nz < enc.n_users]
    i_ids = nz[nz >= enc.n_users] - enc.n_users
    return (u_ids, layer0_grad[u_ids]), (i_ids, layer0_grad[i_ids + enc.n_users])


def score(enc: Encoder, u: int, items) -> np.ndarray:
    """Temperature-scaled cosine scores of one user against a list of items."""
    items = np.asarray(items, dtype=np.int64)
    scores, _ = batch_forward(enc, np.array([u]), items[None, :])
    return scores[0]


def score_backward(enc: Encoder, u: int, items, upstream) -> tuple[dict, dict]:
    """Row-gradient maps {row: grad} for both tables given dL/dscore per item.
    Rows whose accumulated gradient is identically zero are omitted."""
    items = np.asarray(items, dtype=np.int64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != items.shape:
        raise DimMismatch("upstream length must match items")
    _, cache = batch_forward(enc, np.array([u]), items[None, :])
    (u_ids, u_grads), (i_ids, i_grads) = batch_backward(enc, cache, upstream[None, :])
    user_map = {int(r): g for r, g in zip(u_ids, u_grads) if np.any(g != 0.0)}
    item_map = {int(r): g for r, g in zip(i_ids, i_grads) if np.any(g != 0.0)}
    return user_map, item_map
