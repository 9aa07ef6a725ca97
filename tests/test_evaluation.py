"""Ranking, metric, bound, and diagnostic tests with brute-force oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from advrec import evaluation
from advrec.dataio import (
    InteractionSet,
    SyntheticSpec,
    generate_synthetic,
    popularity_groups,
    sample_negatives,
)
from advrec.encoder import build_encoder, representations, score
from advrec.errors import (BadParam, EmptyEval, EmptyFnList, EmptySample, NoCandidates,
                           NonFinite, ZeroNormError)
from advrec.evaluation import (
    BLOCK_ROWS,
    SCORE_CELLS,
    RankResult,
    _block_hardness,
    _hit_ranks,
    alignment_uniformity,
    dcg_bound_check,
    evaluate_split,
    fn_identification_rate,
    hardness_popularity_profile,
    rank_all,
    topk_metrics,
)
from advrec.loss import EmbedHardness, hardness_forward

from conftest import tiny_dataset


def make_encoder(dataset, dim=4, tau=0.5, seed=0):
    return build_encoder("mf", dataset.n_users, dataset.n_items, dim, tau, seed)


def naive_metrics(ranking, positives, k):
    """Brute-force reference for one user."""
    hits = [pos + 1 for pos, item in enumerate(ranking) if item in positives]
    in_top = [p for p in hits if p <= k]
    hr = 1.0 if in_top else 0.0
    recall = len(in_top) / len(positives)
    dcg = sum(1.0 / np.log2(1.0 + p) for p in in_top)
    idcg = sum(1.0 / np.log2(1.0 + r) for r in range(1, min(k, len(positives)) + 1))
    return hr, recall, dcg / idcg


def forced_tie_case():
    """Item vectors from a palette of three small-integer rows, so that
    scores tie exactly."""
    rng = np.random.default_rng(11)
    palette = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 3.0]])
    n_users, n_items = 5, 30
    cells = rng.permutation(n_users * n_items)
    pairs = np.stack([cells // n_items, cells % n_items], axis=1)
    ds = InteractionSet(n_users, n_items, pairs[:40], np.zeros((0, 2)), pairs[40:70])
    enc = make_encoder(ds, dim=3, tau=0.5)
    enc.item_table.values[:] = palette[rng.integers(0, 3, size=n_items)]
    enc.user_table.values[:] = rng.integers(-3, 4, size=(n_users, 3))
    enc.user_table.values[:, 0] = 1.0  # no zero-norm user
    return ds, enc


def palette_tie_case(seed):
    """forced_tie_case's construction at a seeded size: 3 to 7 users, 4 to 12
    items, and a seeded share of train pairs, so that some users have few
    candidates."""
    rng = np.random.default_rng(seed)
    palette = rng.integers(-2, 3, size=(3, 3)).astype(float)
    palette[:, 0] = np.abs(palette[:, 0]) + 1.0  # no zero-norm item
    n_users, n_items = int(rng.integers(3, 8)), int(rng.integers(4, 13))
    cells = rng.permutation(n_users * n_items)
    pairs = np.stack([cells // n_items, cells % n_items], axis=1)
    n_train = int(rng.integers(0, len(pairs) // 2))
    n_test = int(rng.integers(1, len(pairs) - n_train))
    ds = InteractionSet(n_users, n_items, pairs[:n_train], np.zeros((0, 2)),
                        pairs[n_train:n_train + n_test])
    enc = make_encoder(ds, dim=3, tau=0.5, seed=seed)
    enc.item_table.values[:] = palette[rng.integers(0, 3, size=n_items)]
    enc.user_table.values[:] = rng.integers(-3, 4, size=(n_users, 3))
    enc.user_table.values[:, 0] = 1.0  # no zero-norm user
    return ds, enc


class TestRankAll:
    def test_hand_case(self):
        ds = InteractionSet(1, 3, np.array([[0, 0]]), np.zeros((0, 2)),
                            np.array([[0, 2]]))
        enc = make_encoder(ds, dim=2, tau=1.0)
        enc.user_table.values[0] = [1.0, 0.0]
        enc.item_table.values[1] = [0.0, 1.0]   # score 0
        enc.item_table.values[2] = [1.0, 0.1]   # score ~0.995
        result = rank_all(enc, 0, ds)
        np.testing.assert_array_equal(result.ranking, [2, 1])
        np.testing.assert_array_equal(result.positions, [1])

    def test_ties_break_by_ascending_id(self):
        ds = InteractionSet(1, 4, np.array([[0, 3]]), np.zeros((0, 2)), np.zeros((0, 2)))
        enc = make_encoder(ds, dim=2, tau=1.0)
        enc.user_table.values[0] = [1.0, 0.0]
        for i in range(3):
            enc.item_table.values[i] = [2.0, 0.0]  # all cosine 1
        result = rank_all(enc, 0, ds)
        np.testing.assert_array_equal(result.ranking, [0, 1, 2])

    def test_excludes_exactly_train_positives(self, small_dataset):
        enc = make_encoder(small_dataset, seed=1)
        for u in range(small_dataset.n_users):
            result = rank_all(enc, u, small_dataset)
            train_pos = set(small_dataset.positives(u, "train"))
            expected = sorted(set(range(small_dataset.n_items)) - train_pos)
            assert sorted(result.ranking.tolist()) == expected
            assert len(set(result.ranking.tolist())) == len(result.ranking)

    def test_agrees_with_naive_sort_oracle(self, small_dataset):
        enc = make_encoder(small_dataset, seed=2)
        for u in range(small_dataset.n_users):
            result = rank_all(enc, u, small_dataset)
            cand = sorted(set(range(small_dataset.n_items))
                          - set(small_dataset.positives(u, "train")))
            scores = {i: score(enc, u, [i])[0] for i in cand}
            oracle = sorted(cand, key=lambda i: (-scores[i], i))
            np.testing.assert_array_equal(result.ranking, oracle)

    def test_positions_under_forced_ties(self):
        # a positive's position is 1 + #higher + #tied with a smaller id.
        ds, enc = forced_tie_case()
        n_items = ds.n_items
        for u in range(ds.n_users):
            s = score(enc, u, np.arange(n_items))
            cand = np.setdiff1d(np.arange(n_items), ds.positives(u, "train"))
            want = [1 + int(np.sum(s[cand] > s[p])) + int(np.sum((s[cand] == s[p]) & (cand < p)))
                    for p in ds.positives(u, "test")]
            np.testing.assert_array_equal(rank_all(enc, u, ds).positions, sorted(want))

    def test_no_candidates_raises(self):
        ds = InteractionSet(1, 2, np.array([[0, 0], [0, 1]]),
                            np.zeros((0, 2)), np.zeros((0, 2)))
        enc = make_encoder(ds, dim=2)
        with pytest.raises(NoCandidates):
            rank_all(enc, 0, ds)


class TestTopkMetrics:
    @staticmethod
    def result(user, ranking, positives):
        positions = np.array(sorted(pos + 1 for pos, item in enumerate(ranking)
                                    if item in positives), dtype=np.int64)
        return RankResult(user=user, ranking=np.asarray(ranking), positions=positions)

    def test_perfect_ranking(self):
        res = self.result(0, [5, 6, 1, 2], {5, 6})
        report = topk_metrics([res], 20)
        assert (report.hr, report.recall, report.ndcg) == (1.0, 1.0, 1.0)

    def test_outside_cutoff(self):
        ranking = list(range(30))
        res = self.result(0, ranking, {20})  # item 20 sits at rank 21
        report = topk_metrics([res], 20)
        assert (report.hr, report.recall, report.ndcg) == (0.0, 0.0, 0.0)

    def test_rank_two_ndcg(self):
        res = self.result(0, [9, 4, 7], {4})
        report = topk_metrics([res], 20)
        assert report.ndcg == pytest.approx(np.log(2.0) / np.log(3.0), abs=1e-12)

    def test_matches_bruteforce_oracle_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n_items = int(rng.integers(5, 40))
            k = int(rng.integers(1, 25))
            ranking = rng.permutation(n_items)
            n_pos = int(rng.integers(1, n_items // 2 + 1))
            positives = set(rng.choice(n_items, size=n_pos, replace=False).tolist())
            res = self.result(0, ranking, positives)
            report = topk_metrics([res], k)
            hr, recall, ndcg = naive_metrics(ranking.tolist(), positives, k)
            assert report.hr == pytest.approx(hr, abs=1e-12)
            assert report.recall == pytest.approx(recall, abs=1e-12)
            assert report.ndcg == pytest.approx(ndcg, abs=1e-12)
            # ndcg = 1 exactly when the positives fill the top min(k, #pos) ranks
            top_filled = set(res.positions.tolist()) >= set(range(1, min(k, n_pos) + 1))
            assert (abs(report.ndcg - 1.0) < 1e-12) == top_filled

    def test_ndcg_equals_per_user_ideal_dcg_exactly(self):
        # Users with 1 .. k + 3 positives, some counts repeated, in one call;
        # each NDCG must equal the one computed with its own ideal DCG. k is
        # past 8, where np.sum stops adding strictly left to right.
        k = 20
        rng = np.random.default_rng(7)
        results = []
        for user, n_pos in enumerate([*range(1, k + 4), 3, 1, k + 2, k]):
            ranking = rng.permutation(50)
            positives = set(rng.choice(50, size=n_pos, replace=False).tolist())
            results.append(self.result(user, ranking, positives))
        report = topk_metrics(results, k)
        for r in results:
            in_top = r.positions[r.positions <= k]
            dcg = float(np.sum(1.0 / np.log2(1.0 + in_top)))
            ideal = float(np.sum(1.0 / np.log2(np.arange(2, min(k, len(r.positions)) + 2))))
            assert report.per_user[r.user][2] == dcg / ideal

    def test_macro_average_skips_users_without_positives(self):
        with_pos = self.result(0, [1, 2], {1})
        without = self.result(1, [1, 2], set())
        report = topk_metrics([with_pos, without], 20)
        assert report.n_users == 1
        assert report.recall == 1.0

    def test_empty_eval_raises(self):
        res = self.result(0, [0, 1], set())
        with pytest.raises(EmptyEval):
            topk_metrics([res], 20)

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            scores = rng.normal(size=n)
            candidates = np.arange(n)
            order_raw = candidates[np.argsort(-scores, kind="stable")]
            order_exp = candidates[np.argsort(-np.exp(scores), kind="stable")]
            positives = set(rng.choice(n, size=2, replace=False).tolist())
            a = topk_metrics([self.result(0, order_raw, positives)], 5)
            b = topk_metrics([self.result(0, order_exp, positives)], 5)
            assert (a.hr, a.recall, a.ndcg) == (b.hr, b.recall, b.ndcg)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            ranking = rng.permutation(15)
            positives = set(rng.choice(15, size=3, replace=False).tolist())
            report = topk_metrics([self.result(0, ranking, positives)], 10)
            for value in (report.hr, report.recall, report.ndcg):
                assert 0.0 <= value <= 1.0


class TestDcgBoundCheck:
    def test_dominant_positive_rank_one(self):
        neg_log_dcg, loss, holds = dcg_bound_check(5.0, np.full(4, -5.0), np.zeros(4))
        assert neg_log_dcg == 0.0
        assert holds and loss > 0.0

    def test_all_negatives_above(self):
        s_negs = np.full(5, 3.0)
        neg_log_dcg, loss, holds = dcg_bound_check(0.0, s_negs, np.zeros(5))
        assert neg_log_dcg == pytest.approx(np.log(np.log2(7.0)))
        assert holds

    def test_sweep_never_violated(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            s_pos = float(rng.uniform(-5, 5))
            s_negs = rng.uniform(-5, 5, size=n)
            deltas = rng.uniform(-2, 2, size=n)
            _, _, holds = dcg_bound_check(s_pos, s_negs, deltas)
            assert holds


class TestAlignmentUniformity:
    def test_collapsed_representations(self):
        ds = InteractionSet(2, 2, np.array([[0, 0], [1, 1]]),
                            np.zeros((0, 2)), np.zeros((0, 2)))
        enc = make_encoder(ds, dim=3, tau=1.0)
        enc.user_table.values[:] = [1.0, 0.0, 0.0]
        enc.item_table.values[:] = [2.0, 0.0, 0.0]  # same direction
        align, uniform = alignment_uniformity(enc, np.array([[0, 0]]), [0], [1])
        assert align == pytest.approx(0.0, abs=1e-15)
        assert uniform == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pair(self):
        ds = InteractionSet(1, 1, np.array([[0, 0]]), np.zeros((0, 2)), np.zeros((0, 2)))
        enc = make_encoder(ds, dim=2, tau=1.0)
        enc.user_table.values[0] = [1.0, 0.0]
        enc.item_table.values[0] = [-1.0, 0.0]
        align, uniform = alignment_uniformity(enc, np.array([[0, 0]]), [0], [0])
        assert align == pytest.approx(4.0, abs=1e-12)
        assert uniform == pytest.approx(-8.0, abs=1e-12)

    def test_matches_double_loop_oracle(self, small_dataset):
        enc = make_encoder(small_dataset, seed=8)
        pos = small_dataset.train_pairs[:6]
        users, items = np.arange(3), np.arange(4)
        align, uniform = alignment_uniformity(enc, pos, users, items)

        user_reps, item_reps = representations(enc)
        u_n = user_reps / np.linalg.norm(user_reps, axis=1, keepdims=True)
        i_n = item_reps / np.linalg.norm(item_reps, axis=1, keepdims=True)
        align_ref = float(np.mean([np.sum((u_n[u] - i_n[i]) ** 2) for u, i in pos]))
        points = [u_n[u] for u in users] + [i_n[i] for i in items]
        acc = [np.exp(-2.0 * np.sum((points[a] - points[b]) ** 2))
               for a in range(len(points)) for b in range(a + 1, len(points))]
        uniform_ref = float(np.log(np.mean(acc)))
        assert abs(align - align_ref) < 1e-12
        assert abs(uniform - uniform_ref) < 1e-12

    def test_invariant_under_orthogonal_rotation(self, small_dataset):
        enc = make_encoder(small_dataset, dim=4, seed=9)
        pos = small_dataset.train_pairs[:5]
        users, items = np.array([0, 1]), np.array([0, 2])
        before = alignment_uniformity(enc, pos, users, items)
        q, _ = np.linalg.qr(np.random.default_rng(10).normal(size=(4, 4)))
        enc.user_table.values[:] = enc.user_table.values @ q.T
        enc.item_table.values[:] = enc.item_table.values @ q.T
        after = alignment_uniformity(enc, pos, users, items)
        assert abs(before[0] - after[0]) < 1e-10
        assert abs(before[1] - after[1]) < 1e-10

    @pytest.mark.parametrize("table,pairs,users,items", [
        ("user", [[0, 0]], [0, 1], [2]),  # row 1 as a point
        ("user", [[1, 0]], [0], [2]),     # row 1 in a positive pair
        ("item", [[0, 0]], [0], [1, 2]),
        ("item", [[0, 1]], [0], [2]),
    ])
    def test_zero_norm_sampled_row_raises(self, small_dataset, table, pairs, users, items):
        enc = make_encoder(small_dataset, seed=11)
        getattr(enc, f"{table}_table").values[1] = 0.0
        with pytest.raises(ZeroNormError):
            alignment_uniformity(enc, pairs, users, items)

    def test_zero_norm_row_not_sampled_changes_nothing(self, small_dataset):
        enc = make_encoder(small_dataset, seed=12)
        pos, users, items = np.array([[0, 0], [2, 3]]), [0, 2], [0, 3]
        before = alignment_uniformity(enc, pos, users, items)
        enc.user_table.values[1] = 0.0
        enc.item_table.values[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert alignment_uniformity(enc, pos, users, items) == before

    @pytest.mark.parametrize("pairs,users,items", [
        (np.zeros((0, 2), dtype=np.int64), [0, 1], [0]),  # no positive pair
        ([[0, 0]], [1], []),                               # a single point
        ([[0, 0]], [], [2]),
        ([[0, 0]], [], []),
    ])
    def test_too_small_a_sample_raises(self, small_dataset, pairs, users, items):
        enc = make_encoder(small_dataset, seed=9)
        with pytest.raises(EmptySample):
            alignment_uniformity(enc, pairs, users, items)


class TestFnIdentificationRate:
    def test_zero_init_hardness_rate_zero(self, small_dataset):
        enc = make_encoder(small_dataset, seed=11)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items,
                                   4, seed=11)
        planted = small_dataset.test_pairs
        rate = fn_identification_rate(model, planted, enc, small_dataset,
                                      n_negatives=8, rng=np.random.default_rng(12))
        assert rate == 0.0  # deltas are exactly 0, strict '<' never fires

    def test_below_average_score_is_identified(self, small_dataset):
        enc = make_encoder(small_dataset, seed=13)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items,
                                   2, seed=13)
        u, j = int(small_dataset.test_pairs[0, 0]), int(small_dataset.test_pairs[0, 1])
        model.user_table.values[u] = [1.0, 0.0]
        model.item_table.values[:] = [1.0, 0.0]
        model.item_table.values[j] = [-1.0, 0.0]  # strictly below every other g
        rate = fn_identification_rate(model, np.array([[u, j]]), enc, small_dataset,
                                      n_negatives=6, rng=np.random.default_rng(14))
        assert rate == 1.0

    def test_blocked_rate_equals_per_row_recomputation(self, small_dataset):
        enc = make_encoder(small_dataset, seed=24)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 3, 24)
        rng = np.random.default_rng(25)
        model.user_table.values[:] = rng.normal(size=model.user_table.values.shape)
        planted = small_dataset.test_pairs
        n_resamples = BLOCK_ROWS // len(planted) + 2   # more than one block
        assert len(planted) * n_resamples > BLOCK_ROWS
        rate = fn_identification_rate(model, planted, enc, small_dataset, n_negatives=5,
                                      rng=np.random.default_rng(26), n_resamples=n_resamples)
        ref_rng = np.random.default_rng(26)
        hits = 0
        for _ in range(n_resamples):
            for u, j in planted:
                others = sample_negatives(small_dataset, int(u), 4, ref_rng).negatives
                batch = hardness_forward(model, int(u), -1, np.concatenate([[j], others]), enc)
                hits += bool(batch.deltas[0] < 0.0)
        assert rate == hits / (len(planted) * n_resamples)
        assert 0.0 < rate < 1.0

    def test_context_without_a_draw_rejected(self, small_dataset):
        enc = make_encoder(small_dataset, seed=15)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 2, 15)
        with pytest.raises(BadParam, match="n_negatives"):
            fn_identification_rate(model, small_dataset.test_pairs, enc, small_dataset,
                                   1, np.random.default_rng(16))

    def test_empty_list_raises(self, small_dataset):
        enc = make_encoder(small_dataset, seed=15)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 2, 15)
        with pytest.raises(EmptyFnList):
            fn_identification_rate(model, np.zeros((0, 2)), enc, small_dataset,
                                   4, np.random.default_rng(16))


class TestHardnessPopularityProfile:
    def test_zero_init_close_to_uniform(self, small_dataset):
        enc = make_encoder(small_dataset, seed=17)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 3, 17)
        n_neg = 8
        rows = hardness_popularity_profile(model, enc, small_dataset, bins=3,
                                           n_negatives=n_neg,
                                           rng=np.random.default_rng(18))
        for _, mean_p, count in rows:
            if count:
                assert mean_p == pytest.approx(1.0 / n_neg, abs=1e-12)

    def test_counts_partition_all_samples(self, small_dataset):
        enc = make_encoder(small_dataset, seed=19)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 3, 19)
        n_neg, n_anchor = 6, 40
        rows = hardness_popularity_profile(model, enc, small_dataset, bins=4,
                                           n_negatives=n_neg,
                                           rng=np.random.default_rng(20),
                                           n_anchor_samples=n_anchor)
        total = sum(count for _, _, count in rows)
        assert total == n_neg * min(n_anchor, len(small_dataset.train_pairs))

    def test_planted_monotone_hardness_yields_monotone_profile(self, small_dataset):
        enc = make_encoder(small_dataset, seed=21)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 2, 21)
        model.user_table.values[:] = [1.0, 0.0]
        pop = small_dataset.item_popularity.astype(np.float64)
        model.item_table.values[:] = np.stack([pop, np.zeros_like(pop)], axis=1)
        rows = hardness_popularity_profile(model, enc, small_dataset, bins=2,
                                           n_negatives=16,
                                           rng=np.random.default_rng(22),
                                           n_anchor_samples=60)
        means = [m for _, m, c in rows if c]
        assert means == sorted(means, reverse=True)  # popular bin first


    @pytest.mark.parametrize("extra", [1, 60])
    def test_more_bins_than_items_raises_before_sampling(self, small_dataset, extra):
        enc = make_encoder(small_dataset, seed=28)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 3, 28)
        rng = np.random.default_rng(29)
        before = rng.bit_generator.state
        with pytest.raises(BadParam, match=f"at most the {small_dataset.n_items} items"):
            hardness_popularity_profile(model, enc, small_dataset,
                                        small_dataset.n_items + extra, 4, rng)
        assert rng.bit_generator.state == before

    def test_one_item_per_bin_is_allowed(self, small_dataset):
        enc = make_encoder(small_dataset, seed=28)
        model = EmbedHardness.init(small_dataset.n_users, small_dataset.n_items, 3, 28)
        rows = hardness_popularity_profile(model, enc, small_dataset, small_dataset.n_items,
                                           4, np.random.default_rng(29))
        assert [b for b, _, _ in rows] == list(range(small_dataset.n_items))

    def test_equals_per_block_add_at(self):
        dataset = tiny_dataset(n_users=400, n_items=50, seed=24)
        assert len(dataset.train_pairs) > BLOCK_ROWS
        enc = make_encoder(dataset, seed=25)
        model = EmbedHardness.init(dataset.n_users, dataset.n_items, 3, 25)
        model.user_table.values[:] = np.random.default_rng(26).normal(size=(400, 3))
        bins, n_neg, n_anchor = 5, 7, len(dataset.train_pairs)
        rows = hardness_popularity_profile(model, enc, dataset, bins, n_neg,
                                           np.random.default_rng(27), n_anchor)
        # reference: one np.add.at pair per block, in block order
        rng = np.random.default_rng(27)
        item_bin = popularity_groups(dataset.item_popularity, bins)
        anchors = dataset.train_pairs[rng.integers(0, n_anchor, size=n_anchor)]
        sums, counts = np.zeros(bins), np.zeros(bins, dtype=np.int64)
        blocks = list(_block_hardness(model, enc, dataset, anchors[:, 0], n_neg, rng))
        assert len(blocks) > 1
        for negs, probs, _ in blocks:
            np.add.at(sums, item_bin[negs].ravel(), probs.ravel())
            np.add.at(counts, item_bin[negs].ravel(), 1)
        assert rows == [(b, float(sums[b] / counts[b]), int(counts[b])) for b in range(bins)]


def loop_metrics(results, k):
    """Per-user metrics reduced one user at a time, each DCG by np.sum over
    the user's own gains: the reference topk_metrics' array reduction must
    equal byte for byte."""
    per_user = {}
    for r in results:
        if len(r.positions):
            in_top = r.positions[r.positions <= k]
            dcg = float(np.sum(1.0 / np.log2(1.0 + in_top)))
            ideal = float(np.sum(1.0 / np.log2(np.arange(2, min(k, len(r.positions)) + 2))))
            per_user[r.user] = (1.0 if len(in_top) else 0.0, len(in_top) / len(r.positions),
                                dcg / ideal)
    return per_user


def hit_ranks_by_user(enc, ds, split, k):
    """_hit_ranks' ranks by user, checking its grouping and counts."""
    got = {}
    for block, ranks, owner, n_pos in _hit_ranks(enc, ds, split, k):
        assert ranks.dtype == np.int64 and np.all(np.diff(owner) >= 0)
        for j, u in enumerate(block.tolist()):
            assert n_pos[j] == len(ds.positives(u, split))
            got[u] = ranks[owner == j]
    return got


def assert_equals_rank_all(enc, ds, split, k_eval=5):
    """evaluate_split's hit ranks and metrics equal, exactly, those of
    topk_metrics over one rank_all per user, which equal the per-user loop's."""
    oracle = [rank_all(enc, int(u), ds, split) for u in ds.users_with_positives(split)]
    for k in (1, k_eval, ds.n_items):
        got = hit_ranks_by_user(enc, ds, split, k)
        assert list(got) == [r.user for r in oracle]
        for r in oracle:
            np.testing.assert_array_equal(got[r.user], r.positions[r.positions <= k])
    want = topk_metrics(oracle, k_eval)
    assert want.per_user == loop_metrics(oracle, k_eval)
    assert (want.hr, want.recall, want.ndcg) == tuple(
        np.array(list(want.per_user.values())).mean(axis=0).tolist())
    report = evaluate_split(enc, ds, split, k_eval)
    assert report.per_user == want.per_user
    assert (report.hr, report.recall, report.ndcg, report.n_users) == \
        (want.hr, want.recall, want.ndcg, want.n_users)


def acceptance_sized_peak(k_eval):
    """tracemalloc's peak, in bytes, of evaluate_split on the test split of
    the acceptance-sized dataset (2,000 users, 1,000 items) with a random MF
    encoder, whose representations are views of its tables. A negative
    k_eval counts back from n_items."""
    ds = generate_synthetic(SyntheticSpec(n_users=2000, n_items=1000, latent_dim=32,
                                          exposure_bias_strength=1.0, train_fraction=0.6,
                                          fn_plant_rate=0.2, relevance_quantile=0.02,
                                          seed=0)).dataset
    enc = make_encoder(ds, dim=32, tau=0.2)
    tracemalloc.start()
    try:
        evaluate_split(enc, ds, "test", k_eval % ds.n_items)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvaluateSplit:
    @pytest.mark.parametrize("split", ["valid", "test"])
    @pytest.mark.parametrize("kind", ["mf", "lightgcn"])
    def test_equals_rank_all(self, kind, split):
        ds = tiny_dataset(n_users=80, n_items=40, seed=31)
        enc = build_encoder(kind, ds.n_users, ds.n_items, 4, 0.5, 32, train_pairs=ds.train_pairs)
        assert_equals_rank_all(enc, ds, split)

    def test_equals_rank_all_under_forced_ties(self):
        ds, enc = forced_tie_case()
        assert_equals_rank_all(enc, ds, "test")

    def test_single_candidate_user(self):
        # user 0's train positives cover every item but its test item 4
        train = np.array([[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [2, 4]])
        ds = InteractionSet(3, 5, train, np.zeros((0, 2)), np.array([[0, 4], [1, 2], [1, 3]]))
        enc = make_encoder(ds, seed=33)
        assert_equals_rank_all(enc, ds, "test", k_eval=1)
        assert evaluate_split(enc, ds, "test", 1).per_user[0] == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_ties_straddling_the_kth_score(self, k):
        # Items 0, 2, 3, 5 and 7 tie; 3 is a train positive. The ranking is
        # 1, 6 | 0, 2, 5, 7 | 4, so at k = 4 the cutoff splits the tied
        # items, with test positive 2 inside it and 7 beyond.
        ds = InteractionSet(1, 8, np.array([[0, 3]]), np.zeros((0, 2)),
                            np.array([[0, 2], [0, 4], [0, 7]]))
        enc = make_encoder(ds, dim=2, tau=1.0)
        enc.user_table.values[0] = [1.0, 0.0]
        enc.item_table.values[:] = [1.0, 1.0]
        enc.item_table.values[[1, 6]] = [1.0, 0.0]
        enc.item_table.values[4] = [0.0, 1.0]
        np.testing.assert_array_equal(rank_all(enc, 0, ds).ranking, [1, 6, 0, 2, 5, 7, 4])
        np.testing.assert_array_equal(hit_ranks_by_user(enc, ds, "test", 4)[0], [4])
        assert_equals_rank_all(enc, ds, "test", k_eval=k)

    @pytest.mark.parametrize("k_eval", [4, 9, 10, 13])
    def test_k_at_or_past_n_items_and_few_candidates(self, k_eval):
        # User 0 has 3 candidates, fewer than k_eval, so its row's k-th
        # largest score is -inf; from k_eval = n_items on nothing is
        # partitioned.
        train = np.array([[0, i] for i in range(7)] + [[1, 0], [2, 5]])
        test = np.array([[0, 7], [0, 9], [1, 3], [1, 8], [2, 1]])
        ds = InteractionSet(3, 10, train, np.zeros((0, 2)), test)
        enc = make_encoder(ds, seed=38)
        assert_equals_rank_all(enc, ds, "test", k_eval=k_eval)
        assert evaluate_split(enc, ds, "test", k_eval).per_user[0][1] == 1.0

    def test_many_hits_sum_pairwise(self):
        # Users with 6 to 30 disjoint test positives aligned with their own
        # axis: 9 to 20 hits in the top 20, where np.sum adds pairwise.
        rng = np.random.default_rng(39)
        sizes = [6, 9, 11, 13, 16, 20, 24, 30]
        n_users, n_items = len(sizes), 300
        items = rng.permutation(n_items)
        test = np.array([(u, int(i)) for u, i in
                         zip(np.repeat(np.arange(n_users), sizes), items)])
        train = np.array([(u, int(i)) for u in range(n_users)
                          for i in items[sum(sizes) + 5 * u:sum(sizes) + 5 * u + 5]])
        ds = InteractionSet(n_users, n_items, train, np.zeros((0, 2)), test)
        enc = make_encoder(ds, dim=n_users, tau=0.2)
        enc.user_table.values[:] = np.eye(n_users) + 0.1 * rng.normal(size=(n_users, n_users))
        enc.item_table.values[:] = rng.normal(size=(n_items, n_users))
        enc.item_table.values[test[:, 1], test[:, 0]] += 8.0
        hits = [len(ranks) for ranks in hit_ranks_by_user(enc, ds, "test", 20).values()]
        assert sum(9 <= h <= 20 for h in hits) >= 5 and max(hits) == 20
        assert_equals_rank_all(enc, ds, "test", k_eval=20)

    @pytest.mark.parametrize("block_users", [1, 2, 3])
    def test_candidate_chunks_end_inside_a_user(self, monkeypatch, block_users):
        # Every user has 4 test positives among 12 items and k = 8, so most
        # but not all positives are candidates, and chunks of block_users
        # rows split users' candidates.
        rng = np.random.default_rng(40)
        n_users, n_items = 10, 12
        pairs = np.array([[(u, int(i)) for i in rng.choice(n_items, size=6, replace=False)]
                          for u in range(n_users)])
        ds = InteractionSet(n_users, n_items, pairs[:, :2].reshape(-1, 2),
                            np.zeros((0, 2)), pairs[:, 2:].reshape(-1, 2))
        enc = make_encoder(ds, seed=41)
        monkeypatch.setattr(evaluation, "SCORE_CELLS", block_users * n_items)
        split_inside, ranked, real = [], [], evaluation._block_ranks

        def spy(scores, items, owner, step):
            split_inside.extend(owner[c - 1] == owner[c] for c in range(step, len(owner), step))
            ranked.append(len(items))
            return real(scores, items, owner, step)

        monkeypatch.setattr(evaluation, "_block_ranks", spy)
        evaluate_split(enc, ds, "test", 8)
        assert any(split_inside) and sum(ranked) < len(ds.test_pairs)
        assert_equals_rank_all(enc, ds, "test", k_eval=8)

    @pytest.mark.parametrize("block_users", [1, 2, 7])
    def test_small_blocks_and_chunks(self, monkeypatch, block_users):
        # Blocks and chunks of positives have block_users rows. Each user
        # has three test positives, so a chunk ends inside a user's
        # positives, and 20 users make several blocks.
        rng = np.random.default_rng(34)
        n_users, n_items = 20, 16
        pairs = np.array([[(u, int(i)) for i in rng.choice(n_items, size=7, replace=False)]
                          for u in range(n_users)])
        ds = InteractionSet(n_users, n_items, pairs[:, :4].reshape(-1, 2),
                            np.zeros((0, 2)), pairs[:, 4:].reshape(-1, 2))
        enc = make_encoder(ds, seed=35)
        monkeypatch.setattr(evaluation, "SCORE_CELLS", block_users * n_items)
        assert_equals_rank_all(enc, ds, "test")

    def test_zero_norm_evaluated_user_raises(self, small_dataset):
        enc = make_encoder(small_dataset, seed=36)
        evaluated = small_dataset.users_with_positives("test")
        idle = np.setdiff1d(np.arange(small_dataset.n_users), evaluated)
        assert len(idle)
        enc.user_table.values[idle] = 0.0  # not evaluated, so not checked
        evaluate_split(enc, small_dataset, "test")
        enc.user_table.values[evaluated[-1]] = 0.0
        with pytest.raises(ZeroNormError):
            evaluate_split(enc, small_dataset, "test")

    def test_zero_norm_candidate_item_raises(self, small_dataset):
        enc = make_encoder(small_dataset, seed=37)
        u = int(small_dataset.users_with_positives("valid")[0])
        candidate = np.setdiff1d(np.arange(small_dataset.n_items),
                                 small_dataset.positives(u, "train"))[0]
        enc.item_table.values[candidate] = 0.0
        with pytest.raises(ZeroNormError):
            rank_all(enc, u, small_dataset, "valid")
        with pytest.raises(ZeroNormError):
            evaluate_split(enc, small_dataset, "valid")

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_rank_all_on_palette_ties(self, seed):
        # Tied scores at every cutoff, from k = 1 past n_items.
        ds, enc = palette_tie_case(seed)
        for k in (1, 3, ds.n_items - 1, ds.n_items, ds.n_items + 2):
            assert_equals_rank_all(enc, ds, "test", k_eval=k)

    def test_k_of_n_items_minus_one_or_more_partitions_nothing(self, monkeypatch):
        # No row can be skipped there, so nothing is screened and every
        # positive is ranked unpartitioned; test_equals_rank_all_on_palette_ties
        # checks the metrics.
        ds, enc = palette_tie_case(0)
        assert exactly_scored(monkeypatch, enc, ds, "test", ds.n_items - 2)
        monkeypatch.setattr(evaluation, "_kth_largest",
                            lambda rows, k_eval: pytest.fail(f"partitioned at k={k_eval}"))
        monkeypatch.setattr(evaluation, "_screen",
                            lambda *args: pytest.fail("screened at k >= n_items - 1"))
        for k in (ds.n_items - 1, ds.n_items, ds.n_items + 2):
            evaluate_split(enc, ds, "test", k)

    def test_rows_without_a_hit_are_neither_partitioned_nor_ranked(self, monkeypatch):
        # Each user has three distinct train positives, so the -inf cells of
        # a score row name its user. With random scores there are no ties,
        # so a row holds a hit exactly when fewer than k candidates score
        # above its best positive; only those rows are partitioned, and only
        # their positives ranked.
        rng = np.random.default_rng(42)
        n_users, n_items, k = 30, 40, 3
        pairs = np.array([[(u, int(i)) for i in rng.choice(n_items, size=6, replace=False)]
                          for u in range(n_users)])
        ds = InteractionSet(n_users, n_items, pairs[:, :3].reshape(-1, 2),
                            np.zeros((0, 2)), pairs[:, 3:].reshape(-1, 2))
        enc = make_encoder(ds, seed=43)
        by_train = {tuple(ds.positives(u, "train").tolist()): u for u in range(n_users)}
        assert len(by_train) == n_users

        def user_of(row):
            return by_train[tuple(np.flatnonzero(row == -np.inf).tolist())]

        partitioned, ranked = [], []
        real_kth, real_ranks = evaluation._kth_largest, evaluation._block_ranks

        def kth_spy(rows, k_eval):
            partitioned.extend(user_of(row) for row in rows)
            return real_kth(rows, k_eval)

        def ranks_spy(scores, items, owner, step):
            ranked.extend(user_of(scores[j]) for j in owner)
            return real_ranks(scores, items, owner, step)

        monkeypatch.setattr(evaluation, "_kth_largest", kth_spy)
        monkeypatch.setattr(evaluation, "_block_ranks", ranks_spy)
        monkeypatch.setattr(evaluation, "SCORE_CELLS", 7 * n_items)
        evaluate_split(enc, ds, "test", k)
        with_hit = [u for u in range(n_users) if rank_all(enc, u, ds).positions[0] <= k]
        assert 0 < len(with_hit) < n_users
        assert partitioned == with_hit
        assert set(ranked) <= set(with_hit)
        assert_equals_rank_all(enc, ds, "test", k_eval=k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_best_positive_with_k_minus_one_candidates_above_and_a_lower_tie(
            self, monkeypatch, k):
        # Items 1 and 2 score above test positive 5, and item 0 ties with
        # it, so 5 ranks 4th: at k = 3 its row has k - 1 candidates above
        # the best positive and is partitioned, but the lower-id tie at the
        # cutoff pushes 5 past it. At k = 2 the row is skipped.
        ds = InteractionSet(1, 8, np.array([[0, 6]]), np.zeros((0, 2)),
                            np.array([[0, 5], [0, 7]]))
        enc = make_encoder(ds, dim=2, tau=1.0)
        enc.user_table.values[0] = [1.0, 0.0]
        enc.item_table.values[:] = [0.0, 1.0]
        enc.item_table.values[[1, 2]] = [1.0, 0.0]
        enc.item_table.values[[0, 5]] = [1.0, 1.0]
        np.testing.assert_array_equal(rank_all(enc, 0, ds).ranking, [1, 2, 0, 5, 3, 4, 7])
        partitioned = []
        real = evaluation._kth_largest
        monkeypatch.setattr(evaluation, "_kth_largest",
                            lambda rows, k_eval: partitioned.append(len(rows)) or real(rows, k_eval))
        hits = hit_ranks_by_user(enc, ds, "test", k)[0]
        assert partitioned == [0 if k == 2 else 1]
        np.testing.assert_array_equal(hits, [4] if k == 4 else [])
        assert_equals_rank_all(enc, ds, "test", k_eval=k)

    def test_non_finite_item_raises(self, small_dataset):
        enc = make_encoder(small_dataset, seed=44)
        u = int(small_dataset.users_with_positives("test")[0])
        candidate = np.setdiff1d(np.arange(small_dataset.n_items),
                                 small_dataset.positives(u, "train"))[0]
        enc.item_table.values[candidate, 1] = np.nan
        with pytest.raises(NonFinite):
            rank_all(enc, u, small_dataset)
        with pytest.raises(NonFinite):
            evaluate_split(enc, small_dataset, "test")

    def test_non_finite_evaluated_user_raises(self, small_dataset):
        enc = make_encoder(small_dataset, seed=45)
        evaluated = small_dataset.users_with_positives("test")
        idle = np.setdiff1d(np.arange(small_dataset.n_users), evaluated)
        assert len(idle)
        want = evaluate_split(enc, small_dataset, "test")
        enc.user_table.values[idle] = np.nan  # not evaluated, so not checked
        assert evaluate_split(enc, small_dataset, "test") == want
        enc.user_table.values[evaluated[0], 2] = np.inf
        with pytest.raises(NonFinite):
            evaluate_split(enc, small_dataset, "test")
        with pytest.raises(NonFinite):
            rank_all(enc, int(evaluated[0]), small_dataset)

    def test_peak_memory_bounded_by_score_cells(self):
        # The acceptance-sized dataset: a block of 262 users has about 880
        # test positives, whose 7 MB of score rows must not be gathered at
        # once. While a block is screened, one array of SCORE_CELLS 8-byte
        # cells is live (its cosines, freed before any row is scored
        # exactly) with its boolean mask; while the rows that can hold a hit
        # are partitioned, at most two (their exact scores and the gathered
        # copy, freed before any positive is ranked); while candidates are
        # ranked, two (the exact scores and one chunk of gathered score
        # rows), with the chunk's boolean masks and the index arrays. The
        # unit item rows (1,000 x 32) are live throughout. The bound allows
        # two more arrays. MF representations are views of the tables.
        peak, bound = acceptance_sized_peak(k_eval=20), 4 * SCORE_CELLS * 8
        assert peak < bound, f"peak {peak / 2**20:.2f} MB >= bound {bound / 2**20:.2f} MB"

    def test_peak_memory_when_every_positive_is_a_candidate(self):
        # At k = n_items - 1 no row is screened or partitioned: almost every
        # test positive is ranked, in full chunks of score rows. Each chunk
        # must be freed before the next is gathered;
        # test_peak_memory_ranks_one_chunk_at_a_time holds that to a tighter
        # bound.
        peak, bound = acceptance_sized_peak(k_eval=-1), 4 * SCORE_CELLS * 8
        assert peak < bound, f"peak {peak / 2**20:.2f} MB >= bound {bound / 2**20:.2f} MB"

    def test_peak_memory_ranks_one_chunk_at_a_time(self):
        # As test_peak_memory_when_every_positive_is_a_candidate, with a
        # bound of three arrays of SCORE_CELLS 8-byte cells: the score block,
        # one chunk of score rows and their masks fit; a chunk gathered
        # beside the one before it does not.
        peak, bound = acceptance_sized_peak(k_eval=-1), 3 * SCORE_CELLS * 8
        assert peak < bound, f"peak {peak / 2**20:.2f} MB >= bound {bound / 2**20:.2f} MB"

    def test_peak_memory_frees_the_partitioned_copy_before_ranking(self):
        # At k = n_items - 2 almost no row can be skipped: nearly every row
        # passes the screen, whose cosine block is freed before those rows
        # are scored exactly, gathered and partitioned, and then almost
        # every test positive is ranked, in full chunks of score rows. Three
        # arrays of SCORE_CELLS 8-byte cells (the exact scores, one chunk of
        # score rows and their masks) fit; the partitioned copy kept alive
        # while positives are ranked, or a chunk gathered beside the one
        # before it, does not.
        peak, bound = acceptance_sized_peak(k_eval=-2), 3 * SCORE_CELLS * 8
        assert peak < bound, f"peak {peak / 2**20:.2f} MB >= bound {bound / 2**20:.2f} MB"

    def test_runs_over_valid_split(self, small_dataset):
        enc = make_encoder(small_dataset, seed=23)
        report = evaluate_split(enc, small_dataset, "valid", k_eval=5)
        assert 0.0 <= report.recall <= 1.0
        assert report.n_users == len(small_dataset.users_with_positives("valid"))

    def test_train_split_rejected(self, small_dataset):
        enc = make_encoder(small_dataset, seed=27)
        with pytest.raises(BadParam, match="never ranking candidates"):
            evaluate_split(enc, small_dataset, "train")


def exact_counts(enc, ds, split):
    """For each user with positives in the split, the number of non-train
    candidates whose exact score x / (|u| |i| tau), computed for all those
    users in one matmul, is strictly above the user's best positive's: the
    count by which ranking skipped rows before it screened them."""
    user_reps, item_reps = representations(enc)
    users = ds.users_with_positives(split)
    scores = user_reps[users] @ item_reps.T
    scores /= np.linalg.norm(user_reps[users], axis=1)[:, None] \
        * np.linalg.norm(item_reps, axis=1) * enc.tau
    train_items, train_owner = ds.positives_of(users, "train")
    scores[train_owner, train_items] = -np.inf
    items, owner = ds.positives_of(users, split)
    best = np.full(len(users), -np.inf)
    np.maximum.at(best, owner, scores[owner, items])
    return dict(zip(users.tolist(), np.sum(scores > best[:, None], axis=1).tolist()))


def exactly_scored(monkeypatch, enc, ds, split, k):
    """The users, in order, whose rows evaluate_split scores exactly at k
    after the screen."""
    kept, real = [], evaluation._screen

    def spy(unit_users, unit_items, block, *args):
        rows = real(unit_users, unit_items, block, *args)
        kept.extend(block[rows].tolist())
        return rows

    with monkeypatch.context() as m:
        m.setattr(evaluation, "_screen", spy)
        evaluate_split(enc, ds, split, k)
    return kept


def assert_screen_is_safe(monkeypatch, enc, ds, k):
    """The screen skips a test row only where the exact count is at least k,
    and the metrics equal rank_all's."""
    kept, counts = exactly_scored(monkeypatch, enc, ds, "test", k), exact_counts(enc, ds, "test")
    assert [u for u in counts if u not in kept and counts[u] < k] == []
    assert_equals_rank_all(enc, ds, "test", k_eval=k)
    return kept, counts


def random_case(n_users, n_items, dim, seed):
    """Random MF tables over users with three test and three train
    positives each."""
    rng = np.random.default_rng(seed)
    pairs = np.array([[(u, int(i)) for i in rng.choice(n_items, size=6, replace=False)]
                      for u in range(n_users)])
    ds = InteractionSet(n_users, n_items, pairs[:, :3].reshape(-1, 2),
                        np.zeros((0, 2)), pairs[:, 3:].reshape(-1, 2))
    enc = make_encoder(ds, dim=dim, tau=0.5)
    enc.user_table.values[:] = rng.normal(size=(n_users, dim))
    enc.item_table.values[:] = rng.normal(size=(n_items, dim))
    return ds, enc, rng


class TestScreen:
    @pytest.mark.parametrize("scale", [(1.0, 1.0), (1e100, 1e100), (1e-10, 1e100)])
    @pytest.mark.parametrize("dim", [2, 3, 64])
    @pytest.mark.parametrize("above,train_above,k,live", [
        ((0.5,), (), 1, True),          # best + MARGIN/2 does not count
        ((2.0,), (), 1, False),         # best + 2 MARGIN does
        ((0.5, 2.0), (), 2, True),
        ((2.0, 3.0), (), 2, False),
        ((), (2.0, 3.0), 1, True),      # only train positives above: a hit
        ((0.5,), (2.0, 3.0), 1, True),
    ])
    def test_planted_cosines_at_the_margin(self, monkeypatch, dim, scale, above, train_above,
                                           k, live):
        # One user with test positives 0 (cosine 0.6) and 1 (0.1), planted
        # items at 0.6 + m MARGIN, and 12 items at cosines -0.9 to 0, all in
        # one plane turned by a seeded rotation, so every coordinate is dense.
        margin = evaluation._screen_margin(dim)
        planted = [0.6 + m * margin for m in (*above, *train_above)]
        cosines = np.array([0.6, 0.1, *planted, *np.linspace(-0.9, 0.0, 12)])
        rotation = np.linalg.qr(np.random.default_rng(dim).normal(size=(dim, dim)))[0]
        plane = np.zeros((len(cosines), dim))
        plane[:, 0], plane[:, 1] = cosines, np.sqrt(1.0 - cosines ** 2)
        train = [[0, 2 + len(above) + j] for j in range(len(train_above))]
        ds = InteractionSet(1, len(cosines), np.array(train).reshape(-1, 2), np.zeros((0, 2)),
                            np.array([[0, 0], [0, 1]]))
        enc = make_encoder(ds, dim=dim, tau=0.5)
        enc.user_table.values[0] = scale[0] * rotation[:, 0]
        enc.item_table.values[:] = scale[1] * plane @ rotation.T
        kept, counts = assert_screen_is_safe(monkeypatch, enc, ds, k)
        assert kept == ([0] if live else [])
        assert counts[0] == sum(m > 0 for m in above)
        hit = rank_all(enc, 0, ds).positions[0] <= k
        assert hit == (not above)

    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_magnitudes_from_1e_minus_110_to_1e100(self, monkeypatch, dim):
        # Rows scaled by 1e-10, 1 or 1e100, and for d > 1 a third of the
        # other coordinates by 1e-100 more. At d = 1 every cosine is +-1, so
        # scores tie in groups.
        ds, enc, rng = random_case(40, 50, dim, seed=50 + dim)
        for table in (enc.user_table.values, enc.item_table.values):
            table *= 10.0 ** rng.choice([-10, 0, 100], size=(len(table), 1))
            table[:, 1:] *= np.where(rng.random(size=table[:, 1:].shape) < 1 / 3, 1e-100, 1.0)
        monkeypatch.setattr(evaluation, "SCORE_CELLS", 7 * ds.n_items)
        skipped = 0
        for k in (1, 3, 10, ds.n_items - 2):
            kept, _ = assert_screen_is_safe(monkeypatch, enc, ds, k)
            skipped += ds.n_users - len(kept)
        assert skipped > 0

    def test_rows_below_the_norm_floor_are_rejected_before_any_screen(self, monkeypatch):
        ds, enc, _ = random_case(10, 20, 3, seed=53)
        monkeypatch.setattr(evaluation, "_screen", lambda *args: pytest.fail("screened"))
        for table in (enc.user_table.values, enc.item_table.values):
            saved = table[0].copy()
            table[0] *= 1e-100
            with pytest.raises(ZeroNormError):
                evaluate_split(enc, ds, "test", 3)
            table[0] = saved

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_exact_scoring_gets_exactly_the_rows_the_exact_count_keeps(self, monkeypatch, k):
        # Random scores have no near-ties, so the screen counts what the
        # exact scores count, over several blocks.
        ds, enc, _ = random_case(60, 50, 6, seed=54)
        monkeypatch.setattr(evaluation, "SCORE_CELLS", 7 * ds.n_items)
        kept, counts = assert_screen_is_safe(monkeypatch, enc, ds, k)
        assert kept == [u for u in counts if counts[u] < k]
        assert 0 < len(kept) < ds.n_users
