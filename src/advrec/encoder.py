"""CF backbones: id-embedding (MF) and light graph-convolution scoring.

Both produce temperature-scaled cosine scores. The graph backbone propagates
layer-0 embeddings over the symmetric-normalized user-item bipartite graph
built from train positives only and averages layers 0..L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimMismatch
from .numkit import (
    EmbeddingTable,
    NormAdjacency,
    ScatterIndex,
    Workspace,
    compact_ids,
    einsum_rows,
    propagate,
    propagate_backward,
    row_norms,
    scatter_index,
    take_rows,
)
from .rng import substream

MF = "mf"
LIGHTGCN = "lightgcn"
BACKBONES = (MF, LIGHTGCN)


@dataclass
class Encoder:
    kind: str
    user_table: EmbeddingTable
    item_table: EmbeddingTable
    tau: float
    layers: int = 0
    adj: NormAdjacency | None = None

    def __post_init__(self):
        if self.kind not in BACKBONES:
            raise ValueError(f"unknown backbone {self.kind!r}")
        if self.kind == MF and self.layers != 0:
            raise ValueError(f"the MF backbone has no graph layers, got layers={self.layers}")
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
    if enc.layers == 0:
        return enc.user_table.values, enc.item_table.values
    stacked = np.concatenate([enc.user_table.values, enc.item_table.values], axis=0)
    out = propagate(stacked, enc.adj, enc.layers)
    return out[: enc.n_users], out[enc.n_users:]


@dataclass
class _ScoreCache:
    """What batch_backward reads of its forward. item_reps is the table the
    forward scored, not a copy: the backward gathers its rows again, so the
    table must not change between the two (min_step updates it only after
    the backward)."""

    users: np.ndarray      # (B,)
    items: np.ndarray      # (B, M)
    u_rep: np.ndarray      # (B, d)
    item_reps: np.ndarray  # (n_items, d), the forward's item representations
    i_unique: np.ndarray   # (K, d) rows of the K distinct items, in the index's order
    u_norm: np.ndarray     # (B,)
    i_norm: np.ndarray     # (B, M)
    cos: np.ndarray        # (B, M)
    index: tuple[ScatterIndex, ScatterIndex] | None  # batch_forward's (users, items) index
    ws: Workspace | None   # the forward's workspace, if any, for the backward's chunks


def batch_forward(
    enc: Encoder,
    users: np.ndarray,
    items: np.ndarray,
    reps: tuple[np.ndarray, np.ndarray] | None = None,
    index: tuple[ScatterIndex, ScatterIndex] | None = None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, _ScoreCache]:
    """Scores (B, M) for item block items of shape (B, M) against users (B,).

    index, if given, is the (users, items) pair of scatter_index(users,
    n_users) and scatter_index(items, n_items), as iter_batches' worker
    builds it for a min pass. Each distinct item's norm is computed once,
    over the index's item compaction, or compact_ids' without one: no plan
    is built here. The cache keeps the index, or None, for the backward.

    The user-item products go through einsum_rows, which gathers the item
    rows a chunk at a time, into ws's TERMS buffer if ws is given: no (B, M,
    d) block is built or kept. Ids out of range raise IdOutOfRange."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    user_reps, item_reps = reps if reps is not None else representations(enc)
    u_rep = take_rows(user_reps, users)
    dots = einsum_rows("bd,bmd->bm", u_rep, item_reps, items, ws)
    unique, inverse = ((index[1].unique, index[1].inverse) if index is not None
                       else compact_ids(items, enc.n_items))
    u_norm = row_norms(u_rep)
    i_unique = item_reps.take(unique, axis=0)
    i_norm = row_norms(i_unique)[inverse]
    cos = dots / (u_norm[:, None] * i_norm)
    scores = cos / enc.tau
    return scores, _ScoreCache(users, items, u_rep, item_reps, i_unique, u_norm, i_norm, cos,
                               index, ws)


def batch_backward(
    enc: Encoder,
    cache: _ScoreCache,
    upstream: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Row gradients ((user_ids, grads), (item_ids, grads)) for dL/dscores
    upstream of shape (B, M), pushed through the cosine and, for the graph
    backbone, back through propagation. Ids are unique, grads accumulated
    through the cache's scatter index, built here if the cache holds none.

    Slot (b, m) of item j adds coef_bm * u_b - r_bm * I_j to j's gradient,
    where I_j is j's representation row, the same in every slot that holds
    j. The user terms' weighted sum of item rows gathers them again from
    the cache's item_reps, a chunk at a time, as the forward did. The
    scatter sums the coef * u terms as a weighted gather of the (B,
    d) user rows, through the forward's workspace if it had one, so no (B,
    M, d) block of terms is built and the cache stays as it was. R_j, the
    sum of r_bm over j's slots (a bincount, in input order), then takes R_j
    * I_j off j's sum once per distinct item instead of once per slot. The
    grouping moves the item gradients' bytes by a few ulps against a
    per-slot subtraction. No returned cell is -0.0: the scatter's sums
    start each cell at +0.0 and so are never -0.0, and x - y is -0.0 only
    for x = -0.0.
    """
    c = cache
    up = np.asarray(upstream, dtype=np.float64) / enc.tau
    # d cos / d i_rep and d cos / d u_rep, scaled by upstream
    coef_i = up / (c.u_norm[:, None] * c.i_norm)
    d_u = einsum_rows("bm,bmd->bd", coef_i, c.item_reps, c.items, c.ws)
    d_u -= (np.sum(up * c.cos, axis=1) / c.u_norm**2)[:, None] * c.u_rep
    index = c.index or (scatter_index(c.users, enc.n_users), scatter_index(c.items, enc.n_items))
    u_ids, u_grads = index[0].scatter(d_u, c.ws)
    i_ids, i_grads = index[1].scatter(c.u_rep, c.ws, weights=coef_i)
    radial = np.bincount(index[1].inverse.ravel(), weights=(up * c.cos / c.i_norm**2).ravel(),
                         minlength=len(i_ids))
    i_grads -= radial[:, None] * c.i_unique
    if enc.layers == 0:
        return (u_ids, u_grads), (i_ids, i_grads)

    # Graph backbone: place the sums on the node representations (users,
    # then items), then one linear backward pass through the propagation.
    node_grad = np.zeros((enc.n_users + enc.n_items, enc.dim))
    node_grad[u_ids] = u_grads
    node_grad[enc.n_users + i_ids] = i_grads
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
