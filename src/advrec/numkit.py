"""Dense/sparse numerical kernel: embedding tables, sparse-lazy Adam,
temperature-scaled cosine scoring, index scatter-add, and symmetric-normalized
graph propagation. Every scatter-add, weighted or not, and the propagation
sum a gather through one step-ordered plan (segment_plan) and one routine,
SegmentPlan.sum_take, bit-identical to numpy.add.at. It gathers the summed
rows one group of steps at a time, of at most CHUNK_CELLS cells or one
step, so no array of every summed row is built. The two contractions of a
row block with one side, einsum("bd,bmd->bm") and einsum("bm,bmd->bd") of
table[ids], gather it the same way (einsum_rows), and adam_step updates
its rows in chunks: each chunk stays in cache from its gather to its last
use, which a whole block of a training step does not.

Everything is 64-bit; the test tolerances (1e-10 .. 1e-12) depend on it.
Row gathers use ndarray.take(ids, axis=0), which returns the same bytes as
fancy indexing table[ids] and, for narrow rows, takes about half the time.

A training step's block-sized arrays go into a Workspace that its pass
keeps: a pass's batches share one shape, so after its first step the pass
faults no new buffer memory in (freed arrays of that size otherwise go
back to the OS and are faulted in again on the next step). Every other
caller passes no workspace and gets fresh arrays through the same
functions. Two roles remain: TERMS, the chunk buffer of any call that
gathers in chunks, used and dropped within the call, and GATHER, the MLP
hardness model's (B, N, dim) item gather, which its cache keeps for the
backward. A gather into a buffer uses take(out=, mode="clip") behind its
own range check: take's default mode "raise" copies through a
temporary when given out, which took about three times as long as a fresh
gather for a (1024, 17, 32) block from a 5000-row table, while clip mode
costs the same as a fresh gather but would silently read the nearest row
for an id out of range.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, IdOutOfRange, NonFinite, NonFiniteGradient, ZeroNormError

NORM_FLOOR = 1e-12
# Adam's moment decay rates and the floor added to its denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Cells (512 KB) of one chunk: of the buffer into which a plan sum gathers
# one group of steps or einsum_rows one run of block rows, and of all the
# arrays adam_step works on for one run of table rows. A chunk fills a
# quarter of one core's 2 MB L2 cache, which leaves room for what it is
# gathered from and summed into.
CHUNK_CELLS = 1 << 16


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
        # np.zeros, unlike zeros_like, leaves a large table's pages
        # untouched until a row is first updated
        if self.adam_m is None:
            self.adam_m = np.zeros(self.values.shape)
        if self.adam_v is None:
            self.adam_v = np.zeros(self.values.shape)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def uniform_init(cls, rows: int, dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        """Uniform init in [-0.5/sqrt(d), 0.5/sqrt(d)]; keeps initial scores
        small. A row norm <= 1e-12 (all d draws within 1e-12 of zero: p < 1e-11
        per row even at d = 1) would raise ZeroNormError when a pass reads it."""
        bound = 0.5 / np.sqrt(dim)
        return cls(rng.uniform(-bound, bound, size=(rows, dim)))

    @classmethod
    def zeros(cls, rows: int, dim: int) -> "EmbeddingTable":
        """All-zero table (used for adversarial hardness parameters)."""
        return cls(np.zeros((rows, dim)))

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.values.copy(), self.adam_m.copy(), self.adam_v.copy(), self.step_count
        )


class Workspace:
    """Float64 buffers for a training pass's block-sized arrays, keyed by
    role and grown on demand; empty(role, shape) hands out a view of the
    role's buffer of that shape. Two roles cover a step: TERMS, the chunk
    buffer of any call that gathers in chunks (a plan sum, einsum_rows),
    used and dropped within that call, and GATHER, the MLP hardness
    forward's (B, N, dim) item gather, which its cache keeps for the
    backward. A view is valid until its role is asked for again.

    A workspace belongs to one TrainState and to the thread that steps it.
    Used as a context manager, it drops its buffers on exit: train_epoch
    holds one over each pass, so no buffer outlives a pass."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def empty(self, role: str, shape) -> np.ndarray:
        """An uninitialised float64 array of shape in role's buffer. TERMS
        grows to at least CHUNK_CELLS cells at once, so the chunks of a
        step's calls, which differ in shape, share one buffer."""
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size:
            buf = self._buffers[role] = np.empty(max(size, CHUNK_CELLS) if role == TERMS else size)
        return buf[:size].reshape(shape)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self._buffers.clear()


GATHER = "gather"
TERMS = "terms"


def scratch(ws: Workspace | None, role: str, shape) -> np.ndarray:
    """An uninitialised float64 array of shape: a view of ws's buffer for
    role, or a fresh array without a workspace."""
    return np.empty(shape) if ws is None else ws.empty(role, shape)


def _checked_ids(ids, n: int) -> np.ndarray:
    """ids as int64; IdOutOfRange for an id outside [0, n)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IdOutOfRange(f"id outside [0, {n})")
    return ids


def take_rows(table: np.ndarray, ids, ws: Workspace | None = None) -> np.ndarray:
    """table.take(ids, axis=0) for a float64 table and ids of any shape,
    into scratch(ws, GATHER, ...) (never TERMS, which the next chunked call
    overwrites): a fresh array without a workspace. The gather runs in
    take's clip mode, so an id outside [0, len(table)) is rejected here
    first (IdOutOfRange) instead of reading a clipped row."""
    ids = _checked_ids(ids, len(table))
    out = scratch(ws, GATHER, ids.shape + table.shape[1:])
    return table.take(ids, axis=0, out=out, mode="clip")


ROW_CONTRACTIONS = ("bd,bmd->bm", "bm,bmd->bd")


def einsum_rows(subscripts: str, left, table: np.ndarray, ids,
                ws: Workspace | None = None) -> np.ndarray:
    """np.einsum(subscripts, left, table.take(ids, axis=0)) for (B, M) ids
    and one of ROW_CONTRACTIONS: (B, d) left gives the (B, M) row products,
    (B, M) left the (B, d) weighted row sums. The same bytes, without the
    (B, M, d) block: runs of block rows of at most CHUNK_CELLS cells (or
    one row, if it is bigger) are gathered into one buffer, ws's TERMS
    view if given (table must lie elsewhere) or one fresh buffer per call,
    and each run is contracted into its rows of the output. Every output
    cell sums the same terms in the same order as the one-shot einsum,
    since a run holds whole rows of b. Ids outside [0, len(table)) raise
    IdOutOfRange before any gather."""
    if subscripts not in ROW_CONTRACTIONS:
        raise ValueError(f"subscripts must be one of {ROW_CONTRACTIONS}")
    ids = _checked_ids(ids, len(table))
    left = np.asarray(left, dtype=np.float64)
    (b, m), d = ids.shape, table.shape[1]
    shapes = [(b, d), (b, m)]
    if subscripts == ROW_CONTRACTIONS[1]:
        shapes.reverse()
    if left.shape != shapes[0]:
        raise DimMismatch(f"left {left.shape} != {shapes[0]} for ids {ids.shape}")
    out = np.empty(shapes[1])
    run = max(CHUNK_CELLS // max(m * d, 1), 1)
    buf = scratch(ws, TERMS, (min(run, b), m, d))
    for lo in range(0, b, run):
        hi = min(lo + run, b)
        rows = table.take(ids[lo:hi], axis=0, out=buf[:hi - lo], mode="clip")
        np.einsum(subscripts, left[lo:hi], rows, out=out[lo:hi])
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm along the last axis; ZeroNormError if one is at most NORM_FLOOR."""
    norms = np.linalg.norm(x, axis=-1)
    if np.any(norms <= NORM_FLOOR):
        raise ZeroNormError("representation norm below 1e-12")
    return norms


def check_finite_norms(*norms: np.ndarray) -> None:
    """NonFinite unless every norm is finite. A row holding NaN or Inf has a
    NaN or Inf norm, which row_norms lets through, so that a training step's
    NaN reaches its loss check; ranking calls this on the norms it scales by."""
    if not all(np.isfinite(n).all() for n in norms):
        raise NonFinite("representation holds NaN or Inf")


def cosine_scores(u_vec: np.ndarray, i_mat: np.ndarray, tau: float) -> np.ndarray:
    """(1/tau) * cosine(u_vec, row) for every row of i_mat. ZeroNormError if a
    row has norm at most NORM_FLOOR, then NonFinite if one holds NaN or Inf."""
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
    check_finite_norms(u_norm, i_norms)
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


def check_row_grads(table: EmbeddingTable, row_grads) -> tuple[np.ndarray, np.ndarray]:
    """row_grads as (int64 ids, float64 grads), checked as adam_step checks
    them: DimMismatch unless grads is (len(ids), table.dim), and
    NonFiniteGradient for a NaN or Inf entry."""
    ids, grads = row_grads
    ids = np.asarray(ids, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != (ids.size, table.dim):
        raise DimMismatch(f"gradient block shape {grads.shape} != ({ids.size}, {table.dim})")
    if not np.all(np.isfinite(grads)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    return ids, grads


def adam_step(
    table: EmbeddingTable,
    row_grads: tuple[np.ndarray, np.ndarray],
    lr: float,
    *,
    checked: bool = False,
) -> EmbeddingTable:
    """Sparse/lazy Adam with learning rate lr and the module's ADAM_*
    constants: update only the rows present in row_grads.

    Moments of untouched rows are not decayed, matching common embedding
    training practice; this changes trajectories versus dense Adam.
    step_count increments once per accepted call, even for an empty gradient
    block; a call rejected for its shape or a non-finite gradient leaves the
    table as it was.

    row_grads is a (row_ids, grad_matrix) pair with unique ids, as
    ScatterIndex.scatter returns it; the grad matrix is only read. The
    update runs on consecutive chunks of the rows, each chunk's four (rows,
    d) arrays within CHUNK_CELLS cells together (or one row), so that a
    chunk stays in cache through its twenty-odd passes; with unique ids no
    chunk reads a row another writes, and every cell gets the operations of
    the unchunked update in the same order, so the bytes are the same. A
    chunk works on its gathered rows in place, in the operation order of
    m_hat / (sqrt(v_hat) + eps). A step that updates several tables checks
    every block with check_row_grads before the first update, and passes
    each block as check_row_grads returned it with checked=True, so that no
    block is checked twice.
    """
    ids, grads = row_grads if checked else check_row_grads(table, row_grads)
    table.step_count += 1
    run = max(CHUNK_CELLS // (4 * table.dim), 1)
    for lo in range(0, ids.size, run):
        _adam_rows(table, ids[lo:lo + run], grads[lo:lo + run], lr)
    return table


def _adam_rows(table: EmbeddingTable, ids: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """adam_step's update of the rows ids, at step table.step_count."""
    t = table.step_count
    m = table.adam_m.take(ids, axis=0)
    m *= ADAM_BETA1
    scratch = (1.0 - ADAM_BETA1) * grads
    m += scratch
    v = table.adam_v.take(ids, axis=0)
    v *= ADAM_BETA2
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v += scratch
    table.adam_m[ids] = m
    table.adam_v[ids] = v
    m /= 1.0 - ADAM_BETA1**t      # m_hat
    m *= lr
    v /= 1.0 - ADAM_BETA2**t      # v_hat
    np.sqrt(v, out=v)
    v += ADAM_EPS
    m /= v
    table.values[ids] = np.subtract(table.values.take(ids, axis=0), m, out=m)


@dataclass(frozen=True)
class SegmentPlan:
    """How to sum the rows that share an id, for ids in [0, n): laid out once
    by segment_plan, then used for any number of row sets.

    Ids are ordered by descending count, ties by id; slot holds each id's
    place in that order. Step k takes the k-th row, in input order, of every
    id with more than k rows; those ids are a prefix of the count order.
    order holds the steps' input row positions one after another, and
    offsets[k]:offsets[k + 1] bounds step k. There are as many steps as the
    largest count. The arrays are read-only, as a plan is shared."""

    slot: np.ndarray      # (n,)
    order: np.ndarray     # (k,) for k ids
    offsets: np.ndarray   # (steps + 1,)

    def __post_init__(self):
        for arr in (self.slot, self.order, self.offsets):
            arr.flags.writeable = False

    def sum_take(self, source, index, scale=None, ws: Workspace | None = None) -> np.ndarray:
        """(n, d) sums of source's rows taken in plan order: planned row j is
        source[index[j]], times scale[j] if scale is given.

        The steps go in consecutive groups of at most CHUNK_CELLS cells (or
        the largest step alone, if it is bigger). Each group is gathered
        into one buffer, ws's TERMS view if given (source must lie
        elsewhere) or one fresh buffer per call, and scaled there; then each
        of its steps is added into the prefix of a zeroed output in count
        order, and one take returns the output to id order. So no array of
        every planned row is built. Each output cell sums its terms onto 0.0
        in input order, as numpy.add.at does, so the result is bit-identical
        to it. A group stays in cache from its gather to its sum, which one
        gather of every row does not: on the criterion-10 graph (19,510
        edges, d = 32, in groups of 4,096 rows at 2^17 cells) NormAdjacency.apply
        took 1.28 ms against 1.55 ms (medians, 2-vCPU Xeon guest)."""
        d = source.shape[1]
        out = np.zeros((len(self.slot), d))
        offsets = self.offsets.tolist()
        cap = max([CHUNK_CELLS // max(d, 1), *offsets[1:2]])  # step 0 is the largest
        buf = scratch(ws, TERMS, (min(cap, offsets[-1]), d))
        first = 0
        while first < len(offsets) - 1:
            lo = offsets[first]
            last = bisect.bisect_right(offsets, lo + cap, first + 1) - 1
            hi = offsets[last]
            # index holds row positions of source, so clip mode clips nothing
            terms = source.take(index[lo:hi], axis=0, out=buf[:hi - lo], mode="clip")
            if scale is not None:
                terms *= scale[lo:hi, None]
            for a, b in zip(offsets[first:last], offsets[first + 1:last + 1]):
                out[:b - a] += terms[a - lo:b - lo]
            first = last
        return out.take(self.slot, axis=0)

    def sum(self, rows, ws: Workspace | None = None) -> np.ndarray:
        """(n, d) float64 sums of rows, one d-wide row per planned id in
        input order (any leading shape), through sum_take: its gather buffer
        is ws's TERMS view if given (rows must lie elsewhere)."""
        rows = np.asarray(rows, dtype=np.float64)
        rows = rows.reshape(-1, rows.shape[-1])
        if len(rows) != len(self.order):
            raise DimMismatch(f"{len(rows)} rows for {len(self.order)} planned ids")
        return self.sum_take(rows, self.order, ws=ws)


def segment_plan(ids, n: int) -> SegmentPlan:
    """The SegmentPlan of ids in [0, n), of any shape (read flat).

    A row's place among its id's rows comes from one stable argsort of the
    ids, sorted in the narrowest unsigned type that holds n - 1: for n up to
    65536 numpy then sorts by radix, in O(n + k) for k ids."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    counts = np.bincount(ids, minlength=n)
    if len(counts) > n:
        raise IdOutOfRange(f"id {len(counts) - 1} is not below {n}")
    slot = np.empty(n, dtype=np.int64)
    slot[np.argsort(-counts, kind="stable")] = np.arange(n)
    by_id = np.argsort(ids.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
    # by_id[j] is the rank[j]-th row of its id, in input order (the sort is stable)
    rank = np.arange(ids.size)
    rank -= np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(rank))])
    place = offsets[rank]
    place += np.repeat(slot, counts)
    order = np.empty_like(by_id)
    order[place] = by_id
    return SegmentPlan(slot, order, offsets)


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


@dataclass(frozen=True)
class ScatterIndex:
    """Where scatter sends each slot of an id block: the ascending distinct
    ids, each id's place among them (inverse, of the block's shape) and the
    SegmentPlan of those places. scatter_index builds it; it serves every
    row set laid out like its block."""

    unique: np.ndarray
    inverse: np.ndarray
    plan: SegmentPlan

    def scatter(self, rows, ws: Workspace | None = None, *,
                weights=None) -> tuple[np.ndarray, np.ndarray]:
        """(unique ids, each id's sum over its slots). rows holds one d-wide
        row per slot (any leading shape) or, with weights of the block's
        shape, one row per block row: slot (b, m) then adds weights[b, m] *
        rows[b], a weighted gather as NormAdjacency.apply sums, so no block
        of the products is built. The sum's group gathers go into ws's
        TERMS buffer if given (rows must lie elsewhere)."""
        if weights is None:
            return self.unique, self.plan.sum(rows, ws)
        rows, weights = np.asarray(rows, dtype=np.float64), np.asarray(weights, dtype=np.float64)
        shape = self.inverse.shape
        if weights.shape != shape or rows.ndim != 2 or len(rows) != shape[0]:
            raise DimMismatch(f"rows {rows.shape} and weights {weights.shape} for block {shape}")
        order = self.plan.order
        return self.unique, self.plan.sum_take(rows, order // max(math.prod(shape[1:]), 1),
                                               weights.ravel().take(order), ws)


def scatter_index(ids, n: int) -> ScatterIndex:
    """The ScatterIndex of ids in [0, n), of any shape."""
    unique, inverse = compact_ids(ids, n)
    return ScatterIndex(unique, inverse, segment_plan(inverse, len(unique)))


@dataclass
class NormAdjacency:
    """Symmetric-normalized sparse adjacency: entry (r, c) carries weight
    1/sqrt(deg(r) * deg(c)). Stored as parallel read-only edge arrays, both
    directions present. Degree-zero nodes have no entries.

    Construction also plans apply's sum once: plan is the segment_plan of
    rows, so nodes go by descending degree and step k holds the k-th edge,
    in input order, of every node with more than k edges. step_cols and
    step_weights hold the edges' columns and weights in plan order. All
    arrays are read-only."""

    node_count: int
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))

    def __post_init__(self):
        for name, dtype in (("rows", np.int64), ("cols", np.int64), ("weights", np.float64)):
            setattr(self, name, np.array(getattr(self, name), dtype=dtype))
        self.plan = segment_plan(self.rows, self.node_count)
        self.step_cols = self.cols.take(self.plan.order)
        self.step_weights = self.weights.take(self.plan.order)
        for name in ("rows", "cols", "weights", "step_cols", "step_weights"):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_undirected_edges(cls, node_count: int, edges) -> "NormAdjacency":
        """Build from unique undirected (a, b) pairs (an (E, 2) array-like)."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        deg = np.bincount(pairs.ravel(), minlength=node_count)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        weights = 1.0 / np.sqrt(deg[rows].astype(np.float64) * deg[cols].astype(np.float64))
        return cls(node_count, rows, cols, weights)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x for the normalized adjacency A and (node_count, d) x: the
        plan's sum_take of x's rows at step_cols, times step_weights, so
        the result is bit-identical to numpy.add.at."""
        if x.shape[0] != self.node_count:
            raise DimMismatch(f"input rows {x.shape[0]} != node count {self.node_count}")
        return self.plan.sum_take(np.asarray(x, dtype=np.float64), self.step_cols,
                                  self.step_weights)


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
    acc /= layers + 1
    return acc


def propagate_backward(grad_out: np.ndarray, adj: NormAdjacency, layers: int) -> np.ndarray:
    """Gradient of any scalar loss through propagate. A is symmetric and the
    map is linear, so the backward pass is propagate itself."""
    return propagate(grad_out, adj, layers)
