"""Dense/sparse numerical kernel: embedding tables, sparse-lazy Adam,
temperature-scaled cosine scoring, index scatter-add, and symmetric-normalized
graph propagation.

Everything is 64-bit; the test tolerances (1e-10 .. 1e-12) depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, NonFiniteGradient, ZeroNormError

NORM_FLOOR = 1e-12


@dataclass
class AdamHyper:
    """Adam hyperparameters. Defaults follow common practice."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass
class EmbeddingTable:
    """Row-major parameter matrix with paired Adam moment accumulators."""

    values: np.ndarray
    adam_m: np.ndarray = None
    adam_v: np.ndarray = None
    step_count: int = 0

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimMismatch("embedding table must be 2-D")
        if self.adam_m is None:
            self.adam_m = np.zeros_like(self.values)
        if self.adam_v is None:
            self.adam_v = np.zeros_like(self.values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def uniform_init(cls, rows: int, dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        """Uniform init in [-0.5/sqrt(d), 0.5/sqrt(d)]; keeps row norms nonzero
        and initial scores small."""
        bound = 0.5 / np.sqrt(dim)
        values = rng.uniform(-bound, bound, size=(rows, dim))
        table = cls(values)
        norms = np.linalg.norm(table.values, axis=1)
        # A row of all-tiny draws is astronomically unlikely; re-draw it anyway.
        while np.any(norms <= NORM_FLOOR):
            bad = norms <= NORM_FLOOR
            table.values[bad] = rng.uniform(-bound, bound, size=(int(bad.sum()), dim))
            norms = np.linalg.norm(table.values, axis=1)
        return table

    @classmethod
    def zeros(cls, rows: int, dim: int) -> "EmbeddingTable":
        """All-zero table (used for adversarial hardness parameters)."""
        return cls(np.zeros((rows, dim)))

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.values.copy(), self.adam_m.copy(), self.adam_v.copy(), self.step_count
        )


def cosine_scores(u_vec: np.ndarray, i_mat: np.ndarray, tau: float) -> np.ndarray:
    """(1/tau) * cosine(u_vec, row) for every row of i_mat."""
    u_vec = np.asarray(u_vec, dtype=np.float64)
    i_mat = np.atleast_2d(np.asarray(i_mat, dtype=np.float64))
    if u_vec.shape[-1] != i_mat.shape[-1]:
        raise DimMismatch(f"vector length {u_vec.shape[-1]} != {i_mat.shape[-1]}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    u_norm = np.linalg.norm(u_vec)
    i_norms = np.linalg.norm(i_mat, axis=-1)
    if u_norm <= NORM_FLOOR or np.any(i_norms <= NORM_FLOOR):
        raise ZeroNormError("row norm below 1e-12")
    return (i_mat @ u_vec) / (u_norm * i_norms * tau)


def cosine_score(u_vec: np.ndarray, i_vec: np.ndarray, tau: float) -> float:
    """Temperature-scaled cosine similarity; result lies in [-1/tau, 1/tau]."""
    return float(cosine_scores(u_vec, np.asarray(i_vec)[None, :], tau)[0])


def cosine_score_grad(u_vec, i_vec, tau) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of cosine_score w.r.t. both vectors.

    grad_v = (1/tau) * (u_hat/|i| - cos * i/|i|^2), symmetric for grad_u.
    grad_v is orthogonal to i_vec (cosine ignores radial direction).
    """
    u_vec = np.asarray(u_vec, dtype=np.float64)
    i_vec = np.asarray(i_vec, dtype=np.float64)
    if u_vec.shape != i_vec.shape:
        raise DimMismatch("vector lengths differ")
    u_norm = np.linalg.norm(u_vec)
    i_norm = np.linalg.norm(i_vec)
    if u_norm <= NORM_FLOOR or i_norm <= NORM_FLOOR:
        raise ZeroNormError("row norm below 1e-12")
    cos = float(u_vec @ i_vec) / (u_norm * i_norm)
    grad_u = (i_vec / (i_norm * u_norm) - cos * u_vec / u_norm**2) / tau
    grad_v = (u_vec / (u_norm * i_norm) - cos * i_vec / i_norm**2) / tau
    return grad_u, grad_v


def adam_step(
    table: EmbeddingTable,
    row_grads: tuple[np.ndarray, np.ndarray],
    hyper: AdamHyper,
) -> EmbeddingTable:
    """Sparse/lazy Adam: update only the rows present in row_grads.

    Moments of untouched rows are not decayed, matching common embedding
    training practice; this changes trajectories versus dense Adam.
    step_count increments once per accepted call, even for an empty gradient
    block; a call rejected for its shape or a non-finite gradient leaves the
    table as it was.

    row_grads is a (row_ids, grad_matrix) pair with unique ids, as
    scatter_rows returns it; the grad matrix is only read. The update works
    on the gathered rows in place, in the operation order of
    m_hat / (sqrt(v_hat) + eps), so it builds two (rows, d) temporaries.
    """
    ids, grads = row_grads
    ids = np.asarray(ids, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != (ids.size, table.dim):
        raise DimMismatch(f"gradient block shape {grads.shape} != ({ids.size}, {table.dim})")
    if not np.all(np.isfinite(grads)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    table.step_count += 1
    if ids.size == 0:
        return table
    t = table.step_count
    m = table.adam_m[ids]
    m *= hyper.beta1
    scratch = (1.0 - hyper.beta1) * grads
    m += scratch
    v = table.adam_v[ids]
    v *= hyper.beta2
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - hyper.beta2
    v += scratch
    table.adam_m[ids] = m
    table.adam_v[ids] = v
    m /= 1.0 - hyper.beta1**t      # m_hat
    m *= hyper.lr
    v /= 1.0 - hyper.beta2**t      # v_hat
    np.sqrt(v, out=v)
    v += hyper.eps
    m /= v
    table.values[ids] -= m
    return table


def flat_index(ids, d: int) -> np.ndarray:
    """segment_sum's bincount index for ids and row width d: id * d + col,
    one entry per cell of the (len(ids), d) rows, in row-major order."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    return (ids[:, None] * d + np.arange(d)).ravel()


def segment_sum(ids, rows: np.ndarray, n: int, index: np.ndarray | None = None) -> np.ndarray:
    """(n, d) sums of the rows that share an id: out[k] = sum of rows[j] over
    ids[j] == k, zero for an absent k. ids are non-negative and below n, of
    any shape; rows has one d-wide row per id. One bincount over the flat
    index id * d + col adds each output cell's terms to 0.0 in input order,
    as numpy.add.at does, so the sums are bit-identical to it. A caller that
    sums over the same ids again passes flat_index(ids, d) as index, and ids
    is then not read."""
    d = rows.shape[-1]
    if index is None:
        index = flat_index(ids, d)
    sums = np.bincount(index, weights=rows.reshape(-1), minlength=n * d)
    return sums.astype(np.float64, copy=False).reshape(n, d)  # an empty bincount is int


def compact_ids(ids, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ascending unique ids, inverse) for ids in [0, n) of any shape: the
    arrays np.unique(ids, return_inverse=True) returns, with
    unique[inverse] == ids and inverse of ids' shape.

    Counts instead of sorting: a bincount marks the ids present, and the
    running count of present ids is each id's slot. That costs O(n + k) for
    k ids against the sort's O(k log k), so it wins while n is not far above
    k log k (the benchmark's tables have at most 10k rows, its batches 17k
    ids) and loses for a catalogue much larger than the batch."""
    ids = np.asarray(ids, dtype=np.int64)
    present = np.bincount(ids.ravel(), minlength=n) > 0
    slot = np.cumsum(present) - 1
    return np.flatnonzero(present), slot[ids]


def scatter_rows(ids, grads: np.ndarray, n: int,
                 compaction: tuple[np.ndarray, np.ndarray] | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sum the gradient rows that share an id: (ascending unique ids, summed
    rows). ids of any shape, in [0, n); grads has one row per id. A caller
    that already holds compact_ids(ids, n) passes it as compaction, and ids
    and n are then not read."""
    unique, inverse = compaction if compaction is not None else compact_ids(ids, n)
    return unique, segment_sum(inverse, grads, len(unique))


@dataclass
class NormAdjacency:
    """Symmetric-normalized sparse adjacency: entry (r, c) carries weight
    1/sqrt(deg(r) * deg(c)). Stored as parallel read-only edge arrays, both
    directions present. Degree-zero nodes have no entries.

    apply keeps the scatter index of the last row width it saw, so a graph
    propagated at one width builds it once; the edge arrays are read-only so
    that the kept index always matches them."""

    node_count: int
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    _index: tuple[int, np.ndarray] | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def __post_init__(self):
        for name, dtype in (("rows", np.int64), ("cols", np.int64), ("weights", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            setattr(self, name, arr)

    @classmethod
    def from_undirected_edges(cls, node_count: int, edges) -> "NormAdjacency":
        """Build from unique undirected (a, b) pairs (an (E, 2) array-like)."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        deg = np.bincount(pairs.ravel(), minlength=node_count)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        weights = 1.0 / np.sqrt(deg[rows].astype(np.float64) * deg[cols].astype(np.float64))
        return cls(node_count, rows, cols, weights)

    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for the normalized adjacency A and (node_count, d) x."""
        if x.shape[0] != self.node_count:
            raise DimMismatch(f"input rows {x.shape[0]} != node count {self.node_count}")
        d = x.shape[1]
        if self._index is None or self._index[0] != d:
            self._index = (d, flat_index(self.rows, d))
        gathered = np.asarray(x, dtype=np.float64)[self.cols]
        gathered *= self.weights[:, None]
        return segment_sum(self.rows, gathered, self.node_count, index=self._index[1])


def propagate(layer0: np.ndarray, adj: NormAdjacency, layers: int) -> np.ndarray:
    """Mean of A^l @ layer0 over l = 0..layers. layers=0 returns layer0 exactly."""
    layer0 = np.asarray(layer0, dtype=np.float64)
    if layer0.shape[0] != adj.node_count:
        raise DimMismatch(f"layer0 rows {layer0.shape[0]} != node count {adj.node_count}")
    if layers == 0:
        return layer0.copy()
    acc = layer0.copy()
    current = layer0
    for _ in range(layers):
        current = adj.apply(current)
        acc += current
    return acc / (layers + 1)


def propagate_backward(grad_out: np.ndarray, adj: NormAdjacency, layers: int) -> np.ndarray:
    """Gradient of any scalar loss through propagate. A is symmetric and the
    map is linear, so the backward pass is propagate itself."""
    return propagate(grad_out, adj, layers)
