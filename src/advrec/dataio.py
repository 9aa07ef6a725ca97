"""Interaction ingestion, id remapping, split management, negative sampling,
long-tail test-split construction, and synthetic biased-exposure data.

External format: UTF-8 TSV, one "user<TAB>item" pair per line, lines starting
with '#' ignored. A file that is exactly lines of "digits<TAB>digits\n" is
parsed and checked as one array; any other file goes through the line parser,
which accepts the same pairs and reports each error with its line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadParam,
    DegenerateSpec,
    EmptySplitError,
    EngineError,
    NoNegativesError,
    ParseError,
)
from .rng import check_seed, substream

SPLITS = ("train", "valid", "test")
INT64_MAX = 2**63 - 1  # ids are held as int64
STRICT_DIGITS = 18  # a strict field is below 10**18, so it fits int64
ID_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")  # what int() reads, less "_" and non-ASCII digits


@dataclass
class InteractionSet:
    """Remapped user/item id space plus observed positive pairs per split.

    Each split has one read-only CSR positives index: an indptr over users
    and every user's item ids in ascending order; negative sampling and
    ranking read the train positives only through it. Rejects an id
    outside [0, n_users) or [0, n_items), a repeated pair, and a valid or
    test pair that is also a train pair (train positives are never ranking
    candidates, so recall would silently drop it). Immutable after
    construction; safe for concurrent readers.
    """

    n_users: int
    n_items: int
    train_pairs: np.ndarray  # (k, 2) int64, deduplicated
    valid_pairs: np.ndarray
    test_pairs: np.ndarray
    # original-id -> dense-id maps; None when ids are already native
    user_remap: dict[int, int] | None = None
    item_remap: dict[int, int] | None = None

    def __post_init__(self):
        self._index = {}
        for name in SPLITS:
            pairs = np.asarray(getattr(self, f"{name}_pairs"), dtype=np.int64).reshape(-1, 2)
            setattr(self, f"{name}_pairs", pairs)
            for col, (side, n) in enumerate((("user", self.n_users), ("item", self.n_items))):
                if pairs.size and (pairs[:, col].min() < 0 or pairs[:, col].max() >= n):
                    raise BadParam(f"{name}: {side} id out of range")
            keys = np.sort(pairs[:, 0] * self.n_items + pairs[:, 1])
            if np.any(keys[1:] == keys[:-1]):
                raise BadParam(f"{name}: duplicate (user, item) pair")
            if name == "train":
                in_train = keys
            elif np.any(np.isin(keys, in_train, assume_unique=True)):
                raise BadParam(f"{name}: (user, item) pair is also a train pair")
            indptr = np.zeros(self.n_users + 1, dtype=np.int64)
            np.cumsum(np.bincount(pairs[:, 0], minlength=self.n_users), out=indptr[1:])
            items = keys % self.n_items
            items.flags.writeable = False
            self._index[name] = (indptr, items)
        self.item_popularity = np.bincount(self.train_pairs[:, 1], minlength=self.n_items)

    def positives(self, u: int, split: str = "train") -> np.ndarray:
        """The user's item ids in the split, ascending; a read-only view."""
        indptr, items = self._index[split]
        return items[indptr[u]:indptr[u + 1]]

    def positives_of(self, users, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
        """The positives of an array of users in the split, user by user in
        the order given and ascending within a user, and for each one the
        index of its user in users."""
        indptr, items = self._index[split]
        users = np.asarray(users, dtype=np.int64)
        counts = indptr[users + 1] - indptr[users]
        owner = np.repeat(np.arange(len(users)), counts)
        ends = np.cumsum(counts)
        at = np.arange(len(owner)) + np.repeat(indptr[users] - (ends - counts), counts)
        return items[at], owner

    def remap_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Translate original-id pairs into this set's dense id space.
        Pairs referencing ids unseen at load time are dropped; a column
        whose map is None or empty keeps its ids."""
        out = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        keep = np.ones(len(out), dtype=bool)
        for col, remap in enumerate((self.user_remap, self.item_remap)):
            if not remap:
                continue
            keys = np.fromiter(remap.keys(), dtype=np.int64, count=len(remap))
            values = np.fromiter(remap.values(), dtype=np.int64, count=len(remap))
            order = np.argsort(keys)
            keys, values = keys[order], values[order]
            at = np.minimum(np.searchsorted(keys, out[:, col]), len(keys) - 1)
            keep &= keys[at] == out[:, col]
            out[:, col] = values[at]
        return out[keep]

    def pairs(self, split: str) -> np.ndarray:
        return getattr(self, f"{split}_pairs")

    def users_with_positives(self, split: str) -> np.ndarray:
        return np.flatnonzero(np.diff(self._index[split][0]))


@dataclass
class NegativeSample:
    """Sampled negative item ids, uniform with replacement over each user's
    non-train items: shape (n,) for one user, (len(users), n) for an array
    of users, one row per user."""

    negatives: np.ndarray


def _read_pairs(path) -> list[tuple[int, int]]:
    """The line parser: every accepted form of the format, and every
    ParseError with its line number."""
    pairs = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_no, "expected 'user<TAB>item'")
            if not all(ID_FIELD.fullmatch(field) for field in fields):
                raise ParseError(path, line_no, f"non-integer id in {fields!r}")
            u, i = int(fields[0]), int(fields[1])
            if u < 0 or i < 0:
                raise ParseError(path, line_no, "negative id")
            if u > INT64_MAX or i > INT64_MAX:
                raise ParseError(path, line_no, "id above 2**63 - 1")
            if (u, i) in seen:
                raise ParseError(path, line_no, f"duplicate pair ({u}, {i})")
            seen.add((u, i))
            pairs.append((u, i))
    return pairs


def _parse_file(path) -> np.ndarray:
    """The pairs of a TSV file as (k, 2) int64. A file that is exactly lines
    of "digits<TAB>digits\n" (final newline optional, 1 to STRICT_DIGITS
    ASCII digits per field) is parsed without a Python loop over lines; any
    other goes through the line parser, which raises a bad line's ParseError."""
    data = Path(path).read_bytes()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(b - ord("0") > 9)  # every non-digit byte; uint8 wraps below '0'
    lens = np.diff(ends, prepend=-1) - 1
    if not (len(ends) % 2 == 0 and np.all(b[ends[0::2]] == ord("\t"))
            and np.all(b[ends[1::2]] == ord("\n"))
            and np.all((lens >= 1) & (lens <= STRICT_DIGITS))):
        return np.asarray(_read_pairs(path), dtype=np.int64).reshape(-1, 2)
    starts = ends - lens
    values = np.zeros(len(ends), dtype=np.int64)
    for k in range(int(lens.max(initial=0))):  # Horner's rule, one digit column at a time
        digit = b[np.minimum(starts + k, ends)] - ord("0")
        values = np.where(lens > k, values * 10 + digit, values)
    return values.reshape(-1, 2)


def read_pairs(path) -> np.ndarray:
    """Read a TSV pair file without remapping (raw ids as written), as
    (k, 2) int64; a repeated pair raises the line parser's ParseError with
    its line number."""
    pairs = _parse_file(path)
    if len(np.unique(pairs, axis=0)) < len(pairs):
        _read_pairs(path)
    return pairs


def load_interactions(train_path, valid_path, test_path) -> InteractionSet:
    """Load three TSV splits, remapping ids to dense 0-based ranges in
    first-seen order (train scanned first, then valid, then test).

    Each file is parsed once (_parse_file) and each id column remapped by
    one sort; the InteractionSet constructor finds a repeated pair on the
    dense keys. On any error the files read so far go through the line
    parser again, so a repeated pair in a strict file raises its ParseError
    with its line number, in file order and before any later error, as if
    every file had been read by the line parser."""
    paths = (train_path, valid_path, test_path)
    raw = []
    try:
        for path in paths:
            raw.append(_parse_file(path))
        if not len(raw[0]):
            raise EmptySplitError(f"train split {train_path} has no interactions")
        pairs = np.concatenate(raw)
        remaps = []
        for col in range(2):
            ids, inverse = np.unique(pairs[:, col], return_inverse=True)
            first = np.full(len(ids), len(pairs))
            np.minimum.at(first, inverse, np.arange(len(pairs)))
            order = np.argsort(first)  # the distinct ids in first-seen order
            dense = np.empty(len(ids), dtype=np.int64)
            dense[order] = np.arange(len(ids))
            pairs[:, col] = dense[inverse]
            remaps.append(dict(zip(ids[order].tolist(), range(len(ids)))))
        train, valid, test = np.split(pairs, np.cumsum([len(raw[0]), len(raw[1])]))
        return InteractionSet(
            n_users=len(remaps[0]),
            n_items=len(remaps[1]),
            train_pairs=train,
            valid_pairs=valid,
            test_pairs=test,
            user_remap=remaps[0],
            item_remap=remaps[1],
        )
    except (EngineError, OSError, UnicodeDecodeError):  # what reading or checking can raise
        for path in paths[:len(raw)]:
            _read_pairs(path)  # raises the first repeated pair's ParseError
        raise


def write_pairs(path, pairs) -> None:
    """Write pairs in the TSV exchange format (deterministic order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
            fh.write(f"{int(u)}\t{int(i)}\n")


def write_dataset(out_dir, pairs_by_name: dict) -> dict:
    """Write out_dir/<name>.tsv per entry, creating out_dir; returns {name: path}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {name: out / f"{name}.tsv" for name in pairs_by_name}
    for name, pairs in pairs_by_name.items():
        write_pairs(files[name], pairs)
    return files


def _absent(sorted_values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether each value of q is missing from the ascending array sorted_values."""
    if not len(sorted_values):
        return np.ones(q.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_values, q), len(sorted_values) - 1)
    return sorted_values[at] != q


def _extend(stream: np.ndarray, size: int, n_items: int, rng: np.random.Generator):
    """stream, with draws over [0, n_items) appended if it holds fewer than size values."""
    if len(stream) >= size:
        return stream
    more = rng.integers(0, n_items, size=size - len(stream))
    return np.concatenate([stream, more]) if len(stream) else more


def _draw_size(k: int) -> int:
    """How many items a row that still needs k negatives draws at a time."""
    return max(8, int(1.3 * k) + 4)


def sample_negatives(
    dataset: InteractionSet,
    users,
    n: int,
    rng: np.random.Generator,
) -> NegativeSample:
    """Draw n items uniformly with replacement from each user's non-train
    items: negatives of shape (n,) for one user id, (len(users), n) for a
    1-D array of ids. Raises NoNegativesError up front if any user's
    positives cover every item, and BadParam if n < 1.

    The rule, row by row: a dense row (more than n_items // 2 positives)
    draws n items from its complement. Any other row, while it needs k more,
    draws _draw_size(k) items from [0, n_items) and keeps the non-positives.
    numpy's integers() gives the same values and state however equal-range
    draws are split into calls, so the draws between dense rows are one
    stream that the rows read in order, and none is drawn past what the rule
    draws: a row that falls short reads on into the next rows' draws, and
    those rows are tested again. So a row expected to keep fewer than n of
    its first width draws skips the blocks of rows tested at once against
    their positives, and a block holds at most 64 more than twice the rows
    the last one kept.
    """
    if n < 1:
        raise BadParam("n must be >= 1")
    rows = np.atleast_1d(np.asarray(users, dtype=np.int64))
    indptr, _ = dataset._index["train"]
    n_items = dataset.n_items
    n_pos = indptr[rows + 1] - indptr[rows]
    if np.any(n_pos >= n_items):
        raise NoNegativesError(
            f"user {rows[np.argmax(n_pos >= n_items)]} has interacted with every item")
    width = _draw_size(n)
    dense = n_pos > n_items // 2
    per_row = dense | ((n_items - n_pos) * width < n * n_items)
    cuts = np.append(np.flatnonzero(per_row), len(rows))
    out = np.empty((len(rows), n), dtype=np.int64)
    stream = np.empty(0, dtype=np.int64)  # drawn from [0, n_items), not yet read
    r, span = 0, len(rows)
    while r < len(rows):
        stop = min(int(cuts[np.searchsorted(cuts, r)]), r + span)
        k = stop - r
        if k:
            stream = _extend(stream, k * width, n_items, rng)
            draws = stream[:k * width].reshape(k, width)
            items, owner = dataset.positives_of(rows[r:stop])
            ok = _absent(owner * n_items + items, np.arange(k)[:, None] * n_items + draws)
            short = np.count_nonzero(ok, axis=1) < n
            if short.any():
                k = int(np.argmax(short))
            keep = ok[:k] & (np.cumsum(ok[:k], axis=1) <= n)
            out[r:r + k] = draws[:k][keep].reshape(k, n)
            stream = stream[k * width:]
            span = 2 * k + 64
        r += k
        if r < len(rows) and (per_row[r] or r < stop):
            pos, filled = dataset.positives(int(rows[r])), 0
            if dense[r]:
                cand = np.setdiff1d(np.arange(n_items, dtype=np.int64), pos, assume_unique=True)
                out[r], filled = cand[rng.integers(0, len(cand), size=n)], n
            while filled < n:
                size = _draw_size(n - filled)
                stream = _extend(stream, size, n_items, rng)
                kept = stream[:size][_absent(pos, stream[:size])][:n - filled]
                out[r, filled:filled + len(kept)] = kept
                filled += len(kept)
                stream = stream[size:]
            r += 1
    return NegativeSample(negatives=out[0] if np.ndim(users) == 0 else out)


def popularity_groups(pop: np.ndarray, groups: int) -> np.ndarray:
    """Group index (0-based) per item: items sorted by descending popularity
    (ties by ascending id) into `groups` near-equal-size groups."""
    order = np.lexsort((np.arange(len(pop)), -pop))
    item_group = np.zeros(len(pop), dtype=np.int64)
    for g, chunk in enumerate(np.array_split(order, groups)):
        item_group[chunk] = g
    return item_group


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.int64)


def gamma_quotas(n0: int, gamma: float, groups: int) -> np.ndarray:
    """Per-group test quota: round(n0 * gamma^(-(i-1)/(groups-1))), i 1-based.

    Smaller gamma yields a flatter (more out-of-distribution) test split.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise BadParam(f"gamma must be finite and > 0, got {gamma}")
    if groups < 2:
        raise BadParam("groups must be >= 2")
    if not 1 <= n0 < 2**62:
        raise BadParam(f"n0 must lie in [1, 2**62), got {n0}")
    i = np.arange(1, groups + 1, dtype=np.float64)
    quotas = n0 * gamma ** (-(i - 1) / (groups - 1))
    if quotas.max() >= 2.0**62:
        raise BadParam(f"gamma {gamma} and n0 {n0} give a quota beyond the int64 range")
    return _round_half_up(quotas)


@dataclass
class GammaSplitResult:
    quotas: np.ndarray        # per-group target counts
    drawn: np.ndarray         # per-group realized test counts
    item_group: np.ndarray    # group index (0-based) per item
    train_pairs: np.ndarray
    valid_pairs: np.ndarray
    test_pairs: np.ndarray


def gamma_split(
    pool_pairs: np.ndarray,
    n_items: int,
    gamma: float,
    n0: int,
    rng: np.random.Generator,
    groups: int = 50,
) -> GammaSplitResult:
    """Carve a popularity-controlled long-tail test split out of a pool.

    Items are sorted by descending pool popularity (ties by ascending id)
    into `groups` near-equal-size groups; group i receives
    min(quota_i, available) test interactions drawn uniformly; the remaining
    pool is split 60:10 into train:valid by seeded shuffle. Raises
    EmptySplitError when the quotas leave no pair for train.
    """
    quotas = gamma_quotas(n0, gamma, groups)
    pool = np.asarray(pool_pairs, dtype=np.int64).reshape(-1, 2)
    item_group = popularity_groups(np.bincount(pool[:, 1], minlength=n_items), groups)
    pair_group = item_group[pool[:, 1]]
    is_test = np.zeros(len(pool), dtype=bool)
    drawn = np.zeros(groups, dtype=np.int64)
    for g in range(groups):
        idx = np.flatnonzero(pair_group == g)
        k = min(int(quotas[g]), len(idx))
        if k > 0:
            chosen = rng.choice(idx, size=k, replace=False)
            is_test[chosen] = True
        drawn[g] = k
    test = pool[is_test]
    rest = pool[~is_test]
    if len(rest) == 0:
        raise EmptySplitError(f"gamma split leaves no train pair: the test quotas drew "
                              f"{int(drawn.sum())} of the {len(pool)} pool pairs")
    perm = rng.permutation(len(rest))
    n_train = int(round(len(rest) * 6.0 / 7.0))
    train = rest[perm[:n_train]]
    valid = rest[perm[n_train:]]
    return GammaSplitResult(quotas, drawn, item_group, train, valid, test)


@dataclass
class SyntheticSpec:
    """Configuration of the biased-exposure synthetic generator.

    fn_plant_rate may be 0 to produce a dataset without planted false
    negatives (the test split is then empty).
    """

    n_users: int = 2000
    n_items: int = 1000
    latent_dim: int = 8
    exposure_bias_strength: float = 2.0
    train_fraction: float = 0.5
    fn_plant_rate: float = 0.2
    seed: int = 0
    relevance_quantile: float = 0.02  # fraction of user-item pairs that are relevant

    def __post_init__(self):
        if self.n_users <= 0 or self.n_items <= 0 or self.latent_dim <= 0:
            raise BadParam("dims must be positive")
        if not (0 < self.train_fraction < 1):
            raise BadParam("train_fraction must lie in (0, 1)")
        if not (0 <= self.fn_plant_rate < 1):
            raise BadParam("fn_plant_rate must lie in [0, 1)")
        if not (np.isfinite(self.exposure_bias_strength) and self.exposure_bias_strength >= 0):
            raise BadParam("exposure_bias_strength must be finite and >= 0, "
                           f"got {self.exposure_bias_strength}")
        if not (0 < self.relevance_quantile < 1):
            raise BadParam("relevance_quantile must lie in (0, 1)")
        check_seed(self.seed, error=BadParam)


@dataclass
class SyntheticResult:
    dataset: InteractionSet
    planted_fn: np.ndarray        # (k, 2) relevant pairs hidden from train, placed in test
    exposure_weight: np.ndarray   # per-item relative exposure weight used for biasing


def gamma_resplit(data: SyntheticResult, gamma: float, n0: int, groups: int,
                  seed: int) -> tuple[SyntheticResult, GammaSplitResult]:
    """The popularity-shift protocol on a generated dataset, as
    `advrec generate --gamma` writes it: the observed pool (train, then
    valid) re-split by gamma_split with substream(seed, "gamma-split"),
    seed being the spec's. The returned dataset holds the three new splits
    and no planted false negatives; the GammaSplitResult gives the quotas
    and the per-group counts drawn. Raises gamma_split's errors."""
    ds = data.dataset
    pool = np.concatenate([ds.train_pairs, ds.valid_pairs])
    split = gamma_split(pool, ds.n_items, gamma, n0, substream(seed, "gamma-split"),
                        groups=groups)
    resplit = InteractionSet(ds.n_users, ds.n_items, split.train_pairs, split.valid_pairs,
                             split.test_pairs)
    return SyntheticResult(resplit, np.zeros((0, 2), dtype=np.int64), data.exposure_weight), split


def _linear_quantile(x: np.ndarray, q: float) -> np.float64:
    """np.quantile(x, q) of a 1-D float array x, bit for bit, found with one
    single-kth partition of x in place (x's order is lost).

    numpy's default method, "linear" (type 7 of Hyndman & Fan 1996),
    interpolates between the order statistics at floor(h) and floor(h) + 1,
    where h = (n - 1) * q. np.quantile partitions at four kths (both ends and
    those two), and numpy's multi-kth partition has no SIMD path; one kth at
    floor(h) costs about a tenth as much on the generator's matrix. The
    order statistic at floor(h) + 1 is then the least value right of
    floor(h). Over those two values numpy's virtual index is h - floor(h),
    so np.quantile runs the same interpolation on the same operands. A
    one-value x stays one value: at the top end numpy's weight is n, and the
    sign of a zero result differs between n = 1 and n >= 2. When -0.0 and
    +0.0 tie at floor(h), numpy may return either sign, and so may this;
    no comparison sees the difference.
    """
    h = (x.size - 1) * q
    lo = int(h)
    x.partition(lo)
    above = x[lo + 1:].min() if lo + 1 < x.size else x[lo]
    return np.quantile(np.array([x[lo], above])[:x.size], h - lo)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    """Generate a biased-exposure dataset with known false negatives.

    Latent user/item vectors define true relevance: a pair is relevant when
    its dot product exceeds the (1 - relevance_quantile) quantile of all
    users x items dot products. That cutoff is np.quantile's default
    "linear" value, found with one single-kth partition (_linear_quantile),
    since numpy's own multi-kth partition is the generator's slowest step.
    Relevant pairs are exposed into the observed pool with probability
    proportional to a Zipf-like per-item weight raised to
    exposure_bias_strength; the observed pool is split 6/7:1/7 into
    train:valid. A fn_plant_rate fraction of relevant-but-unexposed pairs is
    planted as false negatives and becomes the unbiased test split.
    """
    users = substream(spec.seed, "latent-user").normal(size=(spec.n_users, spec.latent_dim))
    items = substream(spec.seed, "latent-item").normal(size=(spec.n_items, spec.latent_dim))
    # The users x items affinity matrix is the generator's largest array. The
    # cutoff partitions it in place, and that copy is deleted before the mask
    # recomputes the matrix, so at most one copy is alive at a time and none
    # once the dataset is built. A flat nonzero and a divmod give np.nonzero's
    # row-major pairs at a quarter of its cost.
    affinity = users @ items.T
    cutoff = _linear_quantile(affinity.ravel(), 1.0 - spec.relevance_quantile)
    del affinity
    rel_u, rel_i = np.divmod(np.flatnonzero(users @ items.T > cutoff), spec.n_items)
    if rel_u.size == 0:
        raise DegenerateSpec("no relevant pair at the requested quantile")

    # Zipf-like item weighting: item at popularity rank r gets weight 1/(r+1).
    rank = np.empty(spec.n_items, dtype=np.int64)
    rank[substream(spec.seed, "zipf").permutation(spec.n_items)] = np.arange(spec.n_items)
    w = (1.0 / (rank + 1.0)) ** spec.exposure_bias_strength
    w = w / w.mean()
    p_expose = np.clip(spec.train_fraction * w[rel_i], 0.0, 1.0)
    exposed = substream(spec.seed, "expose").random(rel_u.size) < p_expose

    observed = np.stack([rel_u[exposed], rel_i[exposed]], axis=1)
    hidden = np.stack([rel_u[~exposed], rel_i[~exposed]], axis=1)
    if len(observed) == 0:
        raise DegenerateSpec("no pair was exposed into the observed pool")

    perm = substream(spec.seed, "observed-split").permutation(len(observed))
    n_train = int(round(len(observed) * 6.0 / 7.0))
    train = observed[perm[:n_train]]
    valid = observed[perm[n_train:]]
    if len(train) == 0:
        raise DegenerateSpec("train split is empty")

    k = int(round(spec.fn_plant_rate * len(hidden)))
    if k > 0:
        chosen = substream(spec.seed, "fn-plant").choice(len(hidden), size=k, replace=False)
        planted = hidden[np.sort(chosen)]
    else:
        planted = np.zeros((0, 2), dtype=np.int64)

    dataset = InteractionSet(
        n_users=spec.n_users,
        n_items=spec.n_items,
        train_pairs=train,
        valid_pairs=valid,
        test_pairs=planted,
    )
    return SyntheticResult(dataset=dataset, planted_fn=planted, exposure_weight=w)
