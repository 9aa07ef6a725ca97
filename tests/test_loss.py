"""Loss identities, analytic-gradient oracles, and hardness-model tests."""

import numpy as np
import pytest
from mpmath import mp, exp as mexp, log as mlog, mpf

from advrec.encoder import build_encoder
from advrec.errors import BadDistribution, DimMismatch, IdOutOfRange, NonFinite
from advrec.numkit import TERMS, EmbeddingTable, Workspace
from advrec.loss import (
    HARDNESS_MODELS,
    EmbedHardness,
    MlpHardness,
    advinfonce_backward,
    advinfonce_forward,
    bpr_backward,
    bpr_forward,
    dro_form_loss,
    hardness_backward,
    hardness_forward,
    hardness_grad_from_delta,
    infonce_backward,
    infonce_forward,
    ranking_max_bound,
    softmax_hardness,
)

from conftest import central_difference, max_rel_error


def random_instance(rng, n=None, score_scale=5.0):
    n = n or int(rng.integers(1, 12))
    s_pos = float(rng.uniform(-score_scale, score_scale))
    s_negs = rng.uniform(-score_scale, score_scale, size=n)
    deltas = rng.uniform(-2.0, 2.0, size=n)
    k = float(rng.choice([1.0, 2.0, 16.0, 64.0]))
    return s_pos, s_negs, deltas, k


def naive_advinfonce(s_pos, s_negs, deltas, k):
    """Direct formula evaluation at 60 decimal digits."""
    mp.dps = 60
    denom = mexp(mpf(s_pos)) + mpf(k) * sum(
        mexp(mpf(d)) * mexp(mpf(s)) for d, s in zip(deltas, s_negs)
    )
    return float(-mlog(mexp(mpf(s_pos)) / denom))


class TestAdvInfoNCEForward:
    def test_zero_hardness_reduces_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            s_pos, s_negs, _, k = random_instance(rng)
            zero = np.zeros_like(s_negs)
            assert advinfonce_forward(s_pos, s_negs, zero, k) == infonce_forward(s_pos, s_negs, k)

    def test_two_way_tie_is_ln2(self):
        assert advinfonce_forward(0.7, np.array([0.7]), np.array([0.0]), 1.0) == pytest.approx(
            np.log(2.0), abs=1e-15
        )

    def test_matches_extended_precision_naive_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s_pos, s_negs, deltas, k = random_instance(rng)
            ours = advinfonce_forward(s_pos, s_negs, deltas, k)
            exact = naive_advinfonce(s_pos, s_negs, deltas, k)
            assert abs(ours - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_positive_for_k_at_least_one(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            s_pos, s_negs, deltas, _ = random_instance(rng)
            assert advinfonce_forward(s_pos, s_negs, deltas, 1.0) > 0.0

    def test_monotone_in_each_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s_pos, s_negs, deltas, k = random_instance(rng, n=6)
            base = advinfonce_forward(s_pos, s_negs, deltas, k)
            j = int(rng.integers(0, 6))
            bumped = deltas.copy()
            bumped[j] += 0.1
            assert advinfonce_forward(s_pos, s_negs, bumped, k) > base

    def test_stable_at_large_scores(self):
        value = advinfonce_forward(500.0, np.array([480.0, 490.0]), np.zeros(2), 64.0)
        assert np.isfinite(value) and value > 0.0

    def test_shape_and_finite_errors(self):
        with pytest.raises(DimMismatch):
            advinfonce_forward(0.0, np.zeros(3), np.zeros(2), 1.0)
        with pytest.raises(NonFinite):
            advinfonce_forward(np.nan, np.zeros(2), np.zeros(2), 1.0)


class TestAdvInfoNCEBackward:
    def test_finite_difference_all_arguments(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(300):
            s_pos, s_negs, deltas, k = random_instance(rng)
            grad = advinfonce_backward(s_pos, s_negs, deltas, k)
            fd_pos = central_difference(
                lambda x: advinfonce_forward(float(x[0]), s_negs, deltas, k),
                np.array([s_pos]),
            )[0]
            fd_neg = central_difference(
                lambda x: advinfonce_forward(s_pos, x, deltas, k), s_negs
            )
            fd_delta = central_difference(
                lambda x: advinfonce_forward(s_pos, s_negs, x, k), deltas
            )
            worst = max(worst,
                        max_rel_error(grad.d_s_pos, fd_pos),
                        max_rel_error(grad.d_s_neg, fd_neg),
                        max_rel_error(grad.d_delta, fd_delta))
        assert worst < 1e-5

    def test_gradient_balance(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            s_pos, s_negs, deltas, k = random_instance(rng)
            grad = advinfonce_backward(s_pos, s_negs, deltas, k)
            assert abs(grad.d_s_pos + grad.d_s_neg.sum()) < 1e-10

    def test_gradient_signs_and_loss_sign(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            s_pos, s_negs, deltas, k = random_instance(rng)
            grad = advinfonce_backward(s_pos, s_negs, deltas, max(k, 1.0))
            assert grad.d_s_pos <= 0.0
            assert np.all(grad.d_s_neg >= 0.0)
            assert grad.loss_value >= 0.0

    def test_saturated_positive_kills_gradients(self):
        s_negs = np.array([0.0, -1.0, 2.0])
        grad = advinfonce_backward(42.0, s_negs, np.zeros(3), 1.0)
        assert abs(grad.d_s_pos) < 1e-10
        assert np.all(np.abs(grad.d_s_neg) < 1e-10)

    def test_hardness_proportionality(self):
        # dL/ds_j * exp(-d_j - s_j) must be constant across negatives.
        rng = np.random.default_rng(7)
        for _ in range(200):
            s_pos, s_negs, deltas, k = random_instance(rng, n=8, score_scale=3.0)
            grad = advinfonce_backward(s_pos, s_negs, deltas, k)
            ratios = grad.d_s_neg * np.exp(-deltas - s_negs)
            assert np.max(np.abs(ratios - ratios[0])) < 1e-10 * max(1.0, abs(ratios[0]))

    def test_doubling_hardness_doubles_gradient_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            s_pos, s_negs, deltas, k = random_instance(rng, n=4, score_scale=2.0)
            before = advinfonce_backward(s_pos, s_negs, deltas, k)
            bumped = deltas.copy()
            bumped[0] += np.log(2.0)
            after = advinfonce_backward(s_pos, s_negs, bumped, k)
            ratio_before = before.d_s_neg[0] / before.d_s_neg[1]
            ratio_after = after.d_s_neg[0] / after.d_s_neg[1]
            assert abs(ratio_after - 2.0 * ratio_before) < 1e-10 * max(1.0, ratio_before)

    def test_d_delta_equals_d_s_neg(self):
        rng = np.random.default_rng(9)
        s_pos, s_negs, deltas, k = random_instance(rng)
        grad = advinfonce_backward(s_pos, s_negs, deltas, k)
        np.testing.assert_array_equal(grad.d_delta, grad.d_s_neg)


class TestInfoNCE:
    def test_single_negative_softplus_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = float(rng.uniform(-10, 10))
            s_neg = float(rng.uniform(-5, 5))
            loss = infonce_forward(s_neg + m, np.array([s_neg]), 1.0)
            assert loss == pytest.approx(np.log1p(np.exp(-m)), rel=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            s_pos, s_negs, _, k = random_instance(rng)
            grad = infonce_backward(s_pos, s_negs, k)
            fd_neg = central_difference(lambda x: infonce_forward(s_pos, x, k), s_negs)
            worst = max(worst, max_rel_error(grad.d_s_neg, fd_neg))
        assert worst < 1e-5


class TestDroFormLoss:
    def test_uniform_probs_equal_plain_loss(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            s_pos, s_negs, _, k = random_instance(rng)
            n = len(s_negs)
            p = np.full(n, 1.0 / n)
            dro = dro_form_loss(s_pos, s_negs, p, n, k)
            plain = infonce_forward(s_pos, s_negs, k)
            assert abs(dro - plain) < 1e-12 * max(1.0, abs(plain))

    def test_substitution_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            s_pos, s_negs, _, k = random_instance(rng)
            n = len(s_negs)
            p = rng.dirichlet(np.ones(n))
            p = np.clip(p, 1e-12, None)
            p /= p.sum()
            dro = dro_form_loss(s_pos, s_negs, p, n, k)
            adv = advinfonce_forward(s_pos, s_negs, np.log(n * p), k)
            assert abs(dro - adv) < 1e-12 * max(1.0, abs(adv))

    def test_near_one_hot_limit(self):
        s_pos, s_negs = 0.3, np.array([1.0, -0.5, 0.2])
        k, n = 2.0, 3
        p = np.full(3, 1e-9 / 2)
        p[0] = 1.0 - 1e-9
        loss = dro_form_loss(s_pos, s_negs, p, n, k)
        expected = -np.log(np.exp(s_pos) / (np.exp(s_pos) + k * n * np.exp(s_negs[0])))
        assert abs(loss - expected) < 1e-6

    def test_bad_distribution_raises(self):
        with pytest.raises(BadDistribution):
            dro_form_loss(0.0, np.zeros(2), np.array([0.6, 0.6]), 2, 1.0)


class TestBpr:
    def test_tie_is_ln2(self):
        assert bpr_forward(1.3, 1.3) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_saturated(self):
        assert bpr_forward(41.0, 1.0) < 1e-10

    def test_finite_difference(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(300):
            s_pos, s_neg = rng.uniform(-8, 8, size=2)
            grad = bpr_backward(float(s_pos), float(s_neg))
            fd = central_difference(
                lambda x: bpr_forward(float(x[0]), float(x[1])),
                np.array([s_pos, s_neg]),
            )
            worst = max(worst, max_rel_error([grad.d_s_pos, grad.d_s_neg[0]], fd))
        assert worst < 1e-6

    def test_nonfinite_raises(self):
        with pytest.raises(NonFinite):
            bpr_forward(np.inf, 0.0)


class TestRankingMaxBound:
    def test_deep_margin_case(self):
        s_negs = np.full(5, -40.0)
        lhs, rhs = ranking_max_bound(0.0, s_negs, np.zeros(5))
        assert lhs == 0.0
        assert rhs <= 5 * np.exp(-40.0) + 1e-12
        assert lhs <= rhs

    def test_dominant_term_gap(self):
        s_negs = np.array([30.0, 0.0, 1.0])
        lhs, rhs = ranking_max_bound(0.0, s_negs, np.zeros(3))
        assert lhs <= rhs <= lhs + np.log(len(s_negs) + 1)

    def test_bound_holds_on_sweep(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            s_pos, s_negs, deltas, _ = random_instance(rng)
            lhs, rhs = ranking_max_bound(s_pos, s_negs, deltas)
            assert lhs <= rhs


class TestSoftmaxHardness:
    def test_equal_scores_give_exact_zero_deltas(self):
        for n in (1, 2, 3, 4, 7, 128):
            probs, deltas = softmax_hardness(np.full(n, 0.37))
            assert np.all(deltas == 0.0)
            np.testing.assert_allclose(probs, 1.0 / n, atol=1e-15)

    def test_hand_computed_two_way(self):
        probs, deltas = softmax_hardness(np.array([np.log(2.0), 0.0]))
        np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(deltas, [np.log(4.0 / 3.0), np.log(2.0 / 3.0)], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            g = rng.normal(size=6)
            c = float(rng.uniform(-30, 30))
            p1, d1 = softmax_hardness(g)
            p2, d2 = softmax_hardness(g + c)
            assert np.max(np.abs(p1 - p2)) < 1e-12
            assert np.max(np.abs(d1 - d2)) < 1e-12

    def test_mean_delta_is_negative_kl(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            probs, deltas = softmax_hardness(rng.normal(scale=2.0, size=n))
            kl = float(np.sum((1.0 / n) * np.log((1.0 / n) / probs)))
            assert abs(deltas.mean() + kl) < 1e-10
            assert deltas.mean() <= 1e-15  # -KL <= 0, equality iff uniform
            assert abs(probs.sum() - 1.0) < 1e-10
            assert np.all(probs > 0.0)


class TestHardnessJacobian:
    def test_equal_upstream_is_exact_zero(self):
        probs = np.full(4, 0.25)
        d_delta = np.full(4, 0.713)
        d_g = hardness_grad_from_delta(probs, d_delta)
        assert np.all(d_g == 0.0)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(2, 20))
            probs, _ = softmax_hardness(rng.normal(size=n))
            d_g = hardness_grad_from_delta(probs, rng.normal(size=n))
            assert abs(d_g.sum()) < 1e-10


class TestEmbedHardness:
    def test_init_starts_at_exact_uniform(self):
        model = EmbedHardness.init(5, 7, 4, seed=0)
        batch = hardness_forward(model, 2, 0, np.array([1, 3, 3, 6]))
        assert np.all(batch.deltas == 0.0)
        assert np.all(batch.probs == 1 / 4)

    def test_finite_difference_through_full_loss(self):
        rng = np.random.default_rng(19)
        model = EmbedHardness.init(4, 6, 3, seed=1)
        # move parameters off the zero init so the test is non-trivial
        model.user_table.values[:] = rng.normal(scale=0.5, size=(4, 3))
        model.item_table.values[:] = rng.normal(scale=0.5, size=(6, 3))
        u, i = 1, 0
        negatives = np.array([0, 2, 2, 5])  # includes a duplicate
        s_pos = 0.4
        s_negs = rng.normal(size=4)
        k = 8.0

        def full_loss():
            batch = hardness_forward(model, u, i, negatives)
            return advinfonce_forward(s_pos, s_negs, batch.deltas, k)

        batch = hardness_forward(model, u, i, negatives)
        grad = advinfonce_backward(s_pos, s_negs, batch.deltas, k)
        (u_ids, u_grads), (i_ids, i_grads) = hardness_backward(
            model, batch, grad.d_delta, u, i, negatives
        )

        h = 1e-6
        worst = 0.0
        for row_idx, row in zip(u_ids, u_grads):
            for d in range(3):
                orig = model.user_table.values[row_idx, d]
                model.user_table.values[row_idx, d] = orig + h
                up = full_loss()
                model.user_table.values[row_idx, d] = orig - h
                down = full_loss()
                model.user_table.values[row_idx, d] = orig
                worst = max(worst, max_rel_error(row[d], (up - down) / (2 * h), floor=1e-6))
        for row_idx, row in zip(i_ids, i_grads):
            for d in range(3):
                orig = model.item_table.values[row_idx, d]
                model.item_table.values[row_idx, d] = orig + h
                up = full_loss()
                model.item_table.values[row_idx, d] = orig - h
                down = full_loss()
                model.item_table.values[row_idx, d] = orig
                worst = max(worst, max_rel_error(row[d], (up - down) / (2 * h), floor=1e-6))
        assert worst < 1e-5

    def test_apply_grads_sign_flip(self):
        base = EmbedHardness.init(3, 4, 2, seed=2)
        base.user_table.values[:] = np.random.default_rng(20).normal(size=(3, 2))
        up = base.copy()
        down = base.copy()
        grads = ((np.array([0, 1]), np.ones((2, 2))), (np.array([2]), np.ones((1, 2))))
        up.apply_grads(grads, 0.01, maximize=True)
        down.apply_grads(grads, 0.01, maximize=False)
        delta_up = up.user_table.values - base.user_table.values
        delta_down = down.user_table.values - base.user_table.values
        np.testing.assert_allclose(delta_up, -delta_down, atol=1e-15)


class TestMlpHardness:
    def test_finite_difference_through_full_loss(self):
        rng = np.random.default_rng(21)
        enc = build_encoder("mf", n_users=5, n_items=7, dim=6, tau=0.5, seed=3)
        model = MlpHardness.init(5, 7, 6, seed=4, h=4)
        u, i = 2, 1
        negatives = np.array([0, 4, 4])
        s_pos = -0.2
        s_negs = rng.normal(size=3)
        k = 4.0

        def full_loss():
            batch = hardness_forward(model, u, i, negatives, enc)
            return advinfonce_forward(s_pos, s_negs, batch.deltas, k)

        batch = hardness_forward(model, u, i, negatives, enc)
        grad = advinfonce_backward(s_pos, s_negs, batch.deltas, k)
        grads = hardness_backward(model, batch, grad.d_delta, u, i, negatives, enc)

        h = 1e-6
        worst = 0.0
        for name, param in model.param_arrays().items():
            _, analytic = grads[list(model.param_arrays()).index(name)]
            flat = param.reshape(-1)
            fd = np.zeros_like(flat)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up_val = full_loss()
                flat[idx] = orig - h
                down_val = full_loss()
                flat[idx] = orig
                fd[idx] = (up_val - down_val) / (2 * h)
            worst = max(worst, max_rel_error(analytic.reshape(-1), fd, floor=1e-6))
        assert worst < 1e-5

    def test_bias_starts_at_zero(self):
        model = MlpHardness.init(5, 7, 8, seed=5)
        assert np.all(model.b_user == 0.0)
        assert np.all(model.b_item == 0.0)
        assert model.w_user.shape == (4, 8)


def reference_scores(model, users, negatives, enc):
    """Raw scores g (B, N) of either model, written out with fancy indexing."""
    if model.kind == "embed":
        return np.einsum("bd,bnd->bn", model.user_table.values[users],
                         model.item_table.values[negatives])
    zu = enc.user_table.values[users] @ model.w_user.T + model.b_user
    zi = enc.item_table.values[negatives] @ model.w_item.T + model.b_item
    return np.einsum("bl,bnl->bn", zu, zi)


def make_model(kind):
    """A hardness model off its init, for an MF encoder of 4 users x 6
    items x dim 5."""
    rng = np.random.default_rng(30)
    model = (EmbedHardness.init(4, 6, 3, seed=30) if kind == "embed"
             else MlpHardness.init(4, 6, 5, seed=31, h=3))
    for arr in model.param_arrays().values():
        arr[...] = rng.normal(scale=0.5, size=arr.shape)
    return model


class TestHardnessInterface:
    """Both models through the one interface of the shared base class."""

    def test_registry_maps_each_kind_to_its_model(self):
        assert HARDNESS_MODELS == {"embed": EmbedHardness, "mlp": MlpHardness}

    @pytest.mark.parametrize("kind", sorted(HARDNESS_MODELS))
    def test_param_arrays_are_views_of_layout_rank(self, kind):
        model = make_model(kind)
        arrays = model.param_arrays()
        assert list(arrays) == [name for name, _ in model.LAYOUT]
        for (name, dims), table in zip(model.LAYOUT, model.tables):
            assert arrays[name].ndim == len(dims)
            arrays[name][...] = 7.0
            assert np.all(table.values == 7.0)

    @pytest.mark.parametrize("kind", sorted(HARDNESS_MODELS))
    def test_from_arrays_and_copy_keep_every_table(self, kind):
        model = make_model(kind)
        for other in (type(model).from_arrays(**model.param_arrays()), model.copy()):
            assert [t.values.tobytes() for t in other.tables] == \
                [t.values.tobytes() for t in model.tables]

    @pytest.mark.parametrize("kind", sorted(HARDNESS_MODELS))
    def test_hardness_and_grad_batch(self, kind):
        enc = build_encoder("mf", 4, 6, 5, tau=0.5, seed=32)
        model = make_model(kind)
        rng = np.random.default_rng(33)
        users = np.array([0, 2, 2])
        negatives = rng.integers(0, 6, size=(3, 4))
        probs, deltas, cache = model.forward(users, negatives, enc)
        ref_probs, ref_deltas = softmax_hardness(reference_scores(model, users, negatives, enc))
        assert probs.tobytes() == ref_probs.tobytes()
        assert deltas.tobytes() == ref_deltas.tobytes()
        grads = model.grad_batch(cache, rng.normal(size=(3, 4)))
        assert len(grads) == len(model.tables)
        for (ids, g), table in zip(grads, model.tables):
            assert g.shape == (len(ids), table.dim)
            assert np.all(np.diff(ids) > 0) and 0 <= ids[0] and ids[-1] < table.rows

    @pytest.mark.parametrize("with_ws", [False, True])
    @pytest.mark.parametrize("side,bad", [("user", 4), ("user", -1), ("item", 6), ("item", -1)])
    @pytest.mark.parametrize("kind", sorted(HARDNESS_MODELS))
    def test_ids_out_of_range_raise(self, kind, side, bad, with_ws):
        # the gathers run in take's clip mode, which would read row 0 or the last row
        enc = build_encoder("mf", 4, 6, 5, tau=0.5, seed=32)
        model = make_model(kind)
        users, negatives = np.array([0, 2]), np.array([[1, 5], [0, 3]])
        if side == "user":
            users[1] = bad
        else:
            negatives[1, 0] = bad
        # grad_batch gathers nothing: it reads the forward's cache
        with pytest.raises(IdOutOfRange):
            model.forward(users, negatives, enc, Workspace() if with_ws else None)

    @pytest.mark.parametrize("kind", sorted(HARDNESS_MODELS))
    def test_a_workspace_gives_the_same_bytes(self, kind):
        enc = build_encoder("mf", 4, 6, 5, tau=0.5, seed=34)
        model = make_model(kind)
        rng = np.random.default_rng(35)
        users, negatives = np.array([0, 2, 2, 3]), rng.integers(0, 6, size=(4, 5))
        d_g = rng.normal(size=(4, 5))
        ws = Workspace()
        for _ in range(2):
            *got_half, got_cache = model.forward(users, negatives, enc, ws)
            *want_half, want_cache = model.forward(users, negatives, enc)
            assert [a.tobytes() for a in got_half] == [a.tobytes() for a in want_half]
            got = model.grad_batch(got_cache, d_g)
            want = model.grad_batch(want_cache, d_g)
            assert [(i.tobytes(), g.tobytes()) for i, g in got] \
                == [(i.tobytes(), g.tobytes()) for i, g in want]

    def test_embed_grad_with_zero_d_g_equals_unique_add_at(self):
        # a -0.0 product d_g[b, n] * u[b] adds onto a sum started at +0.0
        model = make_model("embed")
        rng = np.random.default_rng(37)
        users, negatives = np.array([0, 2, 2, 3, 1]), rng.integers(1, 6, size=(5, 4))
        negatives[[0, 1, 1, 4], [2, 0, 3, 1]] = 0  # item 0: only zero d_g entries
        d_g = rng.normal(size=(5, 4))
        d_g[rng.random((5, 4)) < 0.3] = 0.0
        d_g[rng.random((5, 4)) < 0.3] = -0.0
        d_g[negatives == 0] = [-0.0, 0.0, -0.0, -0.0]
        _, _, cache = model.forward(users, negatives, None, Workspace())
        got = model.grad_batch(cache, d_g)
        u = model.user_table.values[users]
        v = model.item_table.values[negatives]
        assert np.any(np.signbit(d_g[..., None] * u[:, None, :]) & (d_g[..., None] == 0.0))
        for (ids, grads), (block, terms) in zip(got, [
                (users, np.einsum("bn,bnd->bd", d_g, v)),
                (negatives, d_g[..., None] * u[:, None, :])]):
            unique, inverse = np.unique(block, return_inverse=True)
            want = np.zeros((len(unique), terms.shape[-1]))
            np.add.at(want, inverse.ravel(), terms.reshape(-1, terms.shape[-1]))
            assert ids.tobytes() == unique.tobytes() and grads.tobytes() == want.tobytes()
            assert not np.any(np.signbit(grads) & (grads == 0.0))
        assert got[1][1][0].tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("kind", sorted(HARDNESS_MODELS))
    def test_a_workspace_cache_gives_two_equal_grad_batches(self, kind):
        # embed gathers its item rows again from its table, and the MLP
        # forward's gather lies in GATHER, which neither grad_batch nor a
        # chunked call's TERMS gather writes
        enc = build_encoder("mf", 4, 6, 5, tau=0.5, seed=34)
        model = make_model(kind)
        users, negatives = np.array([0, 2, 3]), np.array([[1, 5], [0, 3], [3, 3]])
        d_g = np.random.default_rng(36).normal(size=(3, 2))
        _, _, kept = model.forward(users, negatives, enc)
        want = [g.tobytes() for _, g in model.grad_batch(kept, d_g)]
        ws = Workspace()
        _, _, cache = model.forward(users, negatives, enc, ws)
        for _ in range(2):
            assert [g.tobytes() for _, g in model.grad_batch(cache, d_g)] == want
            ws.empty(TERMS, (64,)).fill(np.nan)

    @pytest.mark.parametrize("make", [
        lambda: EmbedHardness(EmbeddingTable.zeros(4, 3), EmbeddingTable.zeros(6, 2)),
        lambda: MlpHardness.from_arrays(w_user=np.zeros((3, 5)), b_user=np.zeros(2),
                                        w_item=np.zeros((3, 5)), b_item=np.zeros(3)),
        lambda: MlpHardness.from_arrays(w_user=np.zeros((3, 5)), b_user=np.zeros(3),
                                        w_item=np.zeros((3, 4)), b_item=np.zeros(3)),
    ], ids=["embed-widths", "mlp-latent", "mlp-dim"])
    def test_tables_that_disagree_are_rejected(self, make):
        with pytest.raises(DimMismatch):
            make()
