"""All-ranking Top-K evaluation, representation diagnostics, and hardness
diagnostics (popularity profile, false-negative identification rate)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataio import InteractionSet, popularity_groups, sample_negatives
from .encoder import Encoder, representations
from .errors import BadParam, EmptyEval, EmptyFnList, EmptySample, NoCandidates
from .loss import advinfonce_forward
from .numkit import check_finite_norms, cosine_scores, row_norms

# Hardness diagnostics score at most this many sampled rows at once, which
# bounds their memory whatever the number of planted pairs or anchors.
BLOCK_ROWS = 1024
# evaluate_split holds at most this many float64 values (2 MB) in its user
# block: first its cosines, then the exact scores of the rows that can hold a
# hit. It holds at most as many again, first in the copy of those rows,
# partitioned in place, and then in the score rows gathered for one chunk of
# candidate positives (a single row when n_items alone exceeds it), which
# bounds its memory whatever the users.
SCORE_CELLS = 1 << 18


@dataclass
class RankResult:
    """Full candidate ranking for one user, as rank_all builds it: every item
    except the user's train positives, sorted by descending score with ties
    broken by ascending item id. Positions of the evaluated split's
    positives are 1-based and ascending."""

    user: int
    ranking: np.ndarray
    positions: np.ndarray


@dataclass
class MetricReport:
    hr: float
    recall: float
    ndcg: float
    k_eval: int
    n_users: int
    per_user: dict[int, tuple[float, float, float]]

    def record(self, split: str) -> dict:
        """The metrics as metrics.jsonl and `advrec evaluate` write them."""
        k = self.k_eval
        return {"split": split, f"hr@{k}": self.hr, f"recall@{k}": self.recall,
                f"ndcg@{k}": self.ndcg}


def rank_all(
    enc: Encoder,
    user: int,
    dataset: InteractionSet,
    split: str = "test",
) -> RankResult:
    """Rank every item except the user's train positives. Deterministic:
    equal scores order by ascending item id. The reference that
    evaluate_split's hit ranks are tested against. Raises cosine_scores'
    ZeroNormError or NonFinite for the user's or a candidate's
    representation."""
    user_reps, item_reps = representations(enc)
    mask = np.ones(dataset.n_items, dtype=bool)
    mask[dataset.positives(user, "train")] = False
    candidates = np.flatnonzero(mask)
    if candidates.size == 0:
        raise NoCandidates(f"user {user} has no candidate items")
    scores = cosine_scores(user_reps[user], item_reps[candidates], enc.tau)
    # candidates are in ascending id order; a stable sort keeps that order
    # within tied scores.
    ranking = candidates[np.argsort(-scores, kind="stable")]
    positions = np.flatnonzero(np.isin(ranking, dataset.positives(user, split))) + 1
    return RankResult(user=user, ranking=ranking, positions=positions)


def _ideal_dcg(n: int) -> float:
    return float(np.sum(1.0 / np.log2(np.arange(2, n + 2))))


def _metrics(blocks, k_eval: int) -> MetricReport:
    """Per-user metrics and their macro averages from blocks of (users,
    ranks, owner, n_pos) as _hit_ranks yields them. The gains of users with
    h hits are summed as the rows of one (users, h) array, which adds them
    in np.sum's order for each user's slice. Raises ValueError if k_eval < 1
    before reading a block."""
    if k_eval < 1:
        raise ValueError("k_eval must be >= 1")
    users, tables = [np.zeros(0, np.int64)], [np.zeros((0, 3))]
    for block, ranks, owner, n_pos in blocks:
        hits = np.bincount(owner, minlength=len(block))
        gains, first = 1.0 / np.log2(1.0 + ranks), np.cumsum(hits) - hits
        dcg = np.zeros(len(block))
        for h in np.unique(hits[hits > 0]).tolist():
            rows = np.flatnonzero(hits == h)
            dcg[rows] = gains[first[rows, None] + np.arange(h)].sum(axis=1)
        m, at = np.unique(np.minimum(n_pos, k_eval), return_inverse=True)
        ideal = np.array([_ideal_dcg(n) for n in m.tolist()])[at]
        users.append(block)
        tables.append(np.stack([hits > 0, hits / n_pos, dcg / ideal], axis=1))
    users, table = np.concatenate(users), np.concatenate(tables)
    if not len(users):
        raise EmptyEval("no user has positives in the evaluated split")
    means = table.mean(axis=0)
    return MetricReport(hr=float(means[0]), recall=float(means[1]),
                        ndcg=float(means[2]), k_eval=k_eval, n_users=len(users),
                        per_user=dict(zip(users.tolist(), map(tuple, table.tolist()))))


def topk_metrics(results: Iterable[RankResult], k_eval: int = 20) -> MetricReport:
    """Macro-averaged hit ratio, recall and NDCG at k over users that have at
    least one positive in the evaluated split, from one RankResult per user.
    Binary gains; ideal DCG over min(k, #positives)."""
    results = [r for r in results if len(r.positions)]
    in_top = [r.positions[r.positions <= k_eval] for r in results]
    users = np.array([r.user for r in results], dtype=np.int64)
    n_pos = np.array([len(r.positions) for r in results], dtype=np.int64)
    owner = np.repeat(np.arange(len(results)), [len(t) for t in in_top])
    ranks = np.concatenate([np.zeros(0, np.int64), *in_top])
    return _metrics([(users, ranks, owner, n_pos)], k_eval)


def _block_ranks(scores: np.ndarray, items: np.ndarray, owner: np.ndarray,
                 step: int) -> np.ndarray:
    """1-based rank of each positive items[j] in its score row
    scores[owner[j]]: 1 + #(score > s) + #(score == s and id < items[j]),
    rank_all's stable order. Gathers at most step score rows at a time."""
    ids = np.arange(scores.shape[1])
    ranks = np.empty(len(items), dtype=np.int64)
    for c in range(0, len(items), step):
        p, rows = items[c:c + step, None], scores[owner[c:c + step]]
        s_p = np.take_along_axis(rows, p, axis=1)
        ranks[c:c + step] = 1 + np.count_nonzero(rows > s_p, axis=1) \
            + np.count_nonzero((rows == s_p) & (ids < p), axis=1)
        del rows  # so that the next chunk is not gathered beside this one
    return ranks


def _kth_largest(rows: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest value, for k at most the row's length.
    Partitions rows in place."""
    rows.partition(-k, axis=1)
    return rows[:, -k]


def _screen_margin(dim: int) -> float:
    """MARGIN, in cosine units, for representations of width dim: 8 (dim + 3)
    float64 eps. _hit_ranks derives it."""
    return 8.0 * (dim + 3) * np.finfo(np.float64).eps


def _screen(unit_users: np.ndarray, unit_items: np.ndarray, block: np.ndarray,
            dataset: InteractionSet, split: str, k_eval: int) -> np.ndarray:
    """Indices in block of the rows that can still hold a hit: those with
    fewer than k_eval non-train candidates whose cosine exceeds the cosine of
    the row's best split positive by more than MARGIN. unit_users holds the
    block's unit user rows. See _hit_ranks."""
    cos = unit_users @ unit_items.T
    items, owner = dataset.positives_of(block, split)
    best = np.maximum.reduceat(cos[owner, items], np.searchsorted(owner, np.arange(len(block))))
    train_items, train_owner = dataset.positives_of(block, "train")
    cos[train_owner, train_items] = -np.inf
    limit = best + _screen_margin(unit_items.shape[1])
    # an int32 row sum of the mask is about twice as fast as count_nonzero's
    above = np.sum(cos > limit[:, None], axis=1, dtype=np.int32)
    return np.flatnonzero(above < k_eval)


def _hit_ranks(enc: Encoder, dataset: InteractionSet, split: str, k_eval: int):
    """Yield (block, ranks, owner, n_pos) per block of users with positives
    in the split, in user order: the ranks <= k_eval of the hits, by owner
    (index in block) and then rank, and each user's positive count. See
    evaluate_split.

    Below k_eval = n_items - 1 each block is first screened (_screen) on
    cosines of unit rows: the item rows i / |i|, divided once per call, and
    the block's user rows u / |u|, in one float64 matmul. A row with k_eval
    or more non-train candidates whose cosine is above its best split
    positive's by more than MARGIN holds no hit and is finished. Only the
    other rows are scored exactly, x / (|u| |i| tau) with x = u . i, in
    cosine_scores' expression.

    MARGIN = 8 (d + 3) eps at width d; let r = eps / 2, float64's unit
    roundoff, and c the exact cosine of a user and an item. In any summation
    order a length-d dot product x . y is computed within d r |x| |y|, and
    a norm within (d/2 + 1) r of its value, relatively (Higham, "Accuracy
    and Stability of Numerical Algorithms", ch. 3). To first order in r:
    - the screen's cosine is within (2 d + 4) r of c: d r for its dot
      product, and (d + 4) r for the two unit rows, whose entries are
      rounded once after a division by a computed norm;
    - tau times an exact score is within (2 d + 5) r of c: d r for the dot
      product, (d + 2) r for the two norms, and 3 r for the roundings of
      |u| |i|, of its product with tau and of the quotient.
    A counted candidate's cosine exceeds the computed best + MARGIN, which
    is at least best + MARGIN - r, so its c exceeds each positive's by more
    than MARGIN - (4 d + 9) r, and tau times its exact score exceeds each
    positive's by more than MARGIN - (8 d + 19) r. MARGIN is (16 d + 48) r,
    over twice (8 d + 19) r, which also covers the second-order terms. So
    each counted candidate scores strictly above every positive of its row
    in the exact scores too: a screened-out row has k_eval or more
    candidates above its best positive there, which evaluate_split shows
    leaves no hit. No row with a hit is skipped, and a row the screen keeps
    is ranked as if nothing were screened. The bounds hold while |u| |i|,
    |u| |i| tau and 1 / tau are normal float64 numbers: row_norms' floor
    keeps |u| and |i| at least 1e-12, and check_finite_norms keeps them
    below the overflow of their squares."""
    user_reps, item_reps = representations(enc)
    users = dataset.users_with_positives(split)
    u_norm = row_norms(user_reps[users])
    i_norm = row_norms(item_reps)
    check_finite_norms(u_norm, i_norm)
    # at k >= n_items - 1 no row can be skipped, so nothing is screened
    screened = k_eval < dataset.n_items - 1
    if screened:
        unit_items = item_reps / i_norm[:, None]
    step = max(1, SCORE_CELLS // dataset.n_items)
    for start in range(0, len(users), step):
        block, norms = users[start:start + step], u_norm[start:start + step]
        n_pos = np.bincount(dataset.positives_of(block, split)[1], minlength=len(block))
        rows = np.arange(len(block))
        if screened:
            rows = _screen(user_reps[block] / norms[:, None], unit_items, block,
                           dataset, split, k_eval)
        live = block[rows]
        scores = user_reps[live] @ item_reps.T
        scores /= norms[rows, None] * i_norm * enc.tau
        train_items, train_owner = dataset.positives_of(live, "train")
        scores[train_owner, train_items] = -np.inf
        items, owner = dataset.positives_of(live, split)
        kth = np.full(len(live), -np.inf)
        if screened:
            # assigned into kth, so that no view keeps the partitioned copy alive
            kth[:] = _kth_largest(scores.copy(), k_eval)
        reach = scores[owner, items] >= kth[owner]
        items, owner = items[reach], owner[reach]
        ranks = _block_ranks(scores, items, owner, step)
        order = np.lexsort((ranks, owner))
        order = order[ranks[order] <= k_eval]
        yield block, ranks[order], rows[owner[order]], n_pos


def evaluate_split(
    enc: Encoder,
    dataset: InteractionSet,
    split: str,
    k_eval: int = 20,
) -> MetricReport:
    """Top-k metrics of an all-item ranking for every user that has
    positives in the split, equal to topk_metrics over rank_all's results.

    Users go in blocks of max(1, SCORE_CELLS // n_items) rows. Every
    positive of a user ranks past the candidates scoring strictly above the
    user's best positive, so a row with k or more of them holds no hit. Each
    block is first screened on cosines of unit vectors, in one matmul: a row
    with k or more non-train candidates whose cosine exceeds its best
    positive's by more than a margin (_hit_ranks derives it from the width
    and float64 eps) is finished, since each of them also scores above every
    positive of the row exactly. Only the other rows are scored against
    every item with one matmul, in cosine_scores' expression, and their
    user's train positives set to -inf. A copy of those scores is
    partitioned in place, which gives each row's k-th largest score (-inf if
    the user has fewer than k candidates); a positive scoring below it
    ranks past k. Each other positive p scoring s ranks 1 + #(score > s) +
    #(score == s and id < p), rank_all's stable order counted on its score
    row, gathered in chunks of the block's size. At the peak the unit item
    rows, one array of the block's size (its cosines, then the exact
    scores) and at most one more are live: the copy while it is
    partitioned, or one chunk of score rows with its boolean masks while
    positives are ranked.

    At k >= n_items - 1 no row can be skipped (a positive never scores above
    itself, so at most n_items - 1 candidates score above the best one), and
    a partition could drop only a positive that the rank filter drops
    anyway. So such a k neither screens nor partitions: every row is scored
    exactly, every positive is ranked, and the ranks <= k are kept.

    Raises ValueError if k_eval < 1, before any work. Raises ZeroNormError
    if the representation of an evaluated user or of any item (every item is
    scored) has norm <= 1e-12, and then NonFinite if one holds NaN or Inf.
    The train split is rejected: train positives are never ranking
    candidates. A split positive is never a train positive, so every
    evaluated user has a candidate."""
    if split == "train":
        raise BadParam("train positives are never ranking candidates; evaluate valid or test")
    return _metrics(_hit_ranks(enc, dataset, split, k_eval), k_eval)


def dcg_bound_check(s_pos: float, s_negs, deltas) -> tuple[float, float, bool]:
    """Single-positive DCG bound against the k=1 loss.

    The hardness-adjusted rank is pi = 1 + #{j : s_j - s_pos + d_j > 0};
    -log(1/log2(1+pi)) never exceeds the loss because 1(x>0) <= exp(x) and
    log2(1+pi) <= pi for pi >= 1.
    """
    s_negs = np.asarray(s_negs, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    pi = 1 + int(np.sum(s_negs - s_pos + deltas > 0.0))
    neg_log_dcg = float(np.log(np.log2(1.0 + pi)))
    loss = advinfonce_forward(s_pos, s_negs, deltas, 1.0)
    return neg_log_dcg, loss, neg_log_dcg <= loss + 1e-12


def alignment_uniformity(
    enc: Encoder,
    positive_pairs: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
) -> tuple[float, float]:
    """Representation quality on L2-normalized final representations.

    align  = mean over positive pairs of squared distance (lower = tighter);
    uniform = log mean over distinct pairs of points (the users', then the
    items' representations) of exp(-2 * squared distance) (lower = more spread out).
    Normalizes only the sampled rows: ZeroNormError if one has norm <= 1e-12.
    """
    positive_pairs = np.asarray(positive_pairs, dtype=np.int64).reshape(-1, 2)
    if len(positive_pairs) == 0 or len(users) + len(items) < 2:
        raise EmptySample("need at least one positive pair and two points")
    user_reps, item_reps = representations(enc)

    def unit(rows):
        return rows / row_norms(rows)[:, None]

    diffs = unit(user_reps[positive_pairs[:, 0]]) - unit(item_reps[positive_pairs[:, 1]])
    align = float(np.mean(np.sum(diffs * diffs, axis=1)))

    points = np.concatenate([unit(user_reps[users]), unit(item_reps[items])])
    sq = np.sum(points * points, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    iu = np.triu_indices(len(points), k=1)
    uniform = float(np.log(np.mean(np.exp(-2.0 * d2[iu]))))
    return align, uniform


def _block_hardness(model, enc: Encoder, dataset: InteractionSet, users: np.ndarray,
                    n: int, rng: np.random.Generator, first=None):
    """Learned sampling probabilities and deltas of (len(users), n) sampled
    negatives. Each block of BLOCK_ROWS rows, which bounds memory, is drawn
    by one sample_negatives call, so the rng is consumed as by one call per
    row in order. first, if given, is a per-row item put in front of the n
    draws. Yields (negatives, probs, deltas) per block."""
    for start in range(0, len(users), BLOCK_ROWS):
        block = users[start:start + BLOCK_ROWS]
        negs = sample_negatives(dataset, block, n, rng).negatives
        if first is not None:
            negs = np.concatenate([first[start:start + BLOCK_ROWS, None], negs], axis=1)
        yield (negs, *model.forward(block, negs, enc)[:2])


def fn_identification_rate(
    model,
    planted_fn: np.ndarray,
    enc: Encoder,
    dataset: InteractionSet,
    n_negatives: int,
    rng: np.random.Generator,
    n_resamples: int = 3,
) -> float:
    """Fraction of planted false negatives receiving strictly negative
    hardness when dropped into a sampled negative context (the planted item
    plus n_negatives - 1 uniform draws), averaged over resamplings."""
    if n_negatives < 2 or n_resamples < 1:
        raise BadParam("n_negatives must be >= 2 and n_resamples >= 1")
    planted_fn = np.asarray(planted_fn, dtype=np.int64).reshape(-1, 2)
    if len(planted_fn) == 0:
        raise EmptyFnList("dataset has no planted false negatives")
    rows = np.tile(planted_fn, (n_resamples, 1))
    hits = sum(int(np.sum(deltas[:, 0] < 0.0)) for _, _, deltas in _block_hardness(
        model, enc, dataset, rows[:, 0], n_negatives - 1, rng, first=rows[:, 1]))
    return hits / len(rows)


def hardness_popularity_profile(
    model,
    enc: Encoder,
    dataset: InteractionSet,
    bins: int,
    n_negatives: int,
    rng: np.random.Generator,
    n_anchor_samples: int = 200,
) -> list[tuple[int, float, int]]:
    """Mean learned sampling probability per item-popularity bin.

    Items are sorted by descending train popularity (ties by ascending id)
    into `bins` near-equal-size bins; rows are (bin, mean_p, count). The
    uniform reference is 1/n_negatives. More bins than items would leave
    bins empty by construction, so that raises BadParam before sampling.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if bins > dataset.n_items:
        raise BadParam(f"bins must be at most the {dataset.n_items} items, got {bins}")
    if n_negatives < 1:
        raise BadParam("n_negatives must be >= 1")
    item_bin = popularity_groups(dataset.item_popularity, bins)
    train = dataset.train_pairs
    if len(train) == 0:
        raise EmptySample("no train pairs to sample anchors from")
    anchors = train[rng.integers(0, len(train), size=min(n_anchor_samples, len(train)))]
    neg_bins, probs = zip(*((item_bin[negs].ravel(), p.ravel()) for negs, p, _ in
                            _block_hardness(model, enc, dataset, anchors[:, 0], n_negatives, rng)))
    neg_bin = np.concatenate(neg_bins)
    sums = np.bincount(neg_bin, weights=np.concatenate(probs), minlength=bins)
    counts = np.bincount(neg_bin, minlength=bins)
    return [
        (b, float(sums[b] / counts[b]) if counts[b] else float("nan"), int(counts[b]))
        for b in range(bins)
    ]
