"""Kernel tests: cosine scoring, sparse Adam, graph propagation."""

import numpy as np
import pytest

from advrec import numkit
from advrec.errors import DimMismatch, IdOutOfRange, NonFiniteGradient, ZeroNormError
from advrec.numkit import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EmbeddingTable,
    NormAdjacency,
    Workspace,
    adam_step,
    check_row_grads,
    compact_ids,
    cosine_score,
    cosine_score_grad,
    einsum_rows,
    propagate,
    propagate_backward,
    scatter_index,
    segment_plan,
    take_rows,
)

from conftest import central_difference, max_rel_error


class TestCosineScore:
    def test_identical_unit_vectors(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0) == pytest.approx(0.0)

    def test_temperature_scaling(self):
        assert cosine_score(np.array([3.0, 4.0]), np.array([3.0, 4.0]), 0.5) == pytest.approx(2.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            a, b = rng.uniform(0.1, 10.0, size=2)
            tau = rng.uniform(0.05, 3.0)
            assert abs(cosine_score(a * u, b * v, tau) - cosine_score(u, v, tau)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            tau = rng.uniform(0.05, 3.0)
            s = cosine_score(rng.normal(size=4), rng.normal(size=4), tau)
            assert -1.0 / tau - 1e-12 <= s <= 1.0 / tau + 1e-12

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormError):
            cosine_score(np.zeros(3), np.ones(3), 1.0)

    def test_dim_mismatch_raises(self):
        with pytest.raises(DimMismatch):
            cosine_score(np.ones(3), np.ones(4), 1.0)


class TestCosineScoreGrad:
    def test_gradient_vanishes_at_maximum(self):
        _, grad_v = cosine_score_grad(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(grad_v, [0.0, 0.0], atol=1e-15)

    def test_orthogonal_case(self):
        _, grad_v = cosine_score_grad(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(grad_v, [1.0, 0.0], atol=1e-12)

    def test_finite_difference_sweep(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            tau = rng.uniform(0.05, 2.0)
            grad_u, grad_v = cosine_score_grad(u, v, tau)
            fd_u = central_difference(lambda x: cosine_score(x, v, tau), u)
            fd_v = central_difference(lambda x: cosine_score(u, x, tau), v)
            worst = max(worst, max_rel_error(grad_u, fd_u), max_rel_error(grad_v, fd_v))
        assert worst < 1e-6

    def test_grad_v_orthogonal_to_i(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            _, grad_v = cosine_score_grad(u, v, 0.3)
            assert abs(grad_v @ v) < 1e-10


def scalar_adam_reference(w0, grads, lr):
    """Independent per-coordinate Adam, bias-corrected."""
    w, m, v = float(w0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return w


def adam_reference(table, ids, grads, lr):
    """The expression form of adam_step that the in-place update replaced."""
    table.step_count += 1
    t = table.step_count
    m = ADAM_BETA1 * table.adam_m[ids]
    m += (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * table.adam_v[ids]
    v += (1.0 - ADAM_BETA2) * (grads * grads)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    table.values[ids] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    table.adam_m[ids] = m
    table.adam_v[ids] = v


def table_bytes(table):
    return (table.values.tobytes(), table.adam_m.tobytes(), table.adam_v.tobytes(),
            table.step_count)


class TestAdamStep:
    def test_empty_grads_noop_but_counts(self):
        rng = np.random.default_rng(0)
        table = EmbeddingTable.uniform_init(4, 3, rng)
        before = table.values.copy()
        adam_step(table, (np.zeros(0, dtype=np.int64), np.zeros((0, 3))), 1e-3)
        np.testing.assert_array_equal(table.values, before)
        assert table.step_count == 1

    def test_first_step_is_signed_lr(self):
        table = EmbeddingTable.uniform_init(3, 4, np.random.default_rng(1))
        before = table.values[1].copy()
        g = np.array([0.5, -2.0, 1e3, -1e-2])
        adam_step(table, ([1], g[None, :]), 0.01)
        delta = table.values[1] - before
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), rtol=1e-5)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable.uniform_init(2, 5, rng)
        g1 = rng.normal(size=5)
        w0 = table.values[0].copy()
        adam_step(table, ([0], g1[None, :]), 0.07)
        adam_step(table, ([0], g1[None, :]), 0.07)
        expected = np.array([
            scalar_adam_reference(w0[d], [g1[d], g1[d]], 0.07) for d in range(5)
        ])
        np.testing.assert_allclose(table.values[0], expected, atol=1e-12)

    def test_lazy_rows_untouched(self):
        table = EmbeddingTable.uniform_init(5, 3, np.random.default_rng(4))
        before = table.values.copy()
        adam_step(table, ([2], np.ones((1, 3))), 1e-3)
        mask = np.ones(5, dtype=bool)
        mask[2] = False
        np.testing.assert_array_equal(table.values[mask], before[mask])
        assert np.all(table.adam_m[mask] == 0.0)

    def test_deterministic(self):
        def run():
            table = EmbeddingTable.uniform_init(4, 3, np.random.default_rng(9))
            rng = np.random.default_rng(10)
            for _ in range(5):
                adam_step(table, ([int(rng.integers(0, 4))], rng.normal(size=(1, 3))), 1e-3)
            return table.values.tobytes()

        assert run() == run()

    def test_nonfinite_gradient_raises(self):
        table = EmbeddingTable.uniform_init(2, 2, np.random.default_rng(5))
        with pytest.raises(NonFiniteGradient):
            adam_step(table, ([0], np.array([[np.nan, 1.0]])), 1e-3)

    @pytest.mark.parametrize("ids,grads,error", [
        ([0, 1], np.ones((1, 3)), DimMismatch),
        ([1], np.ones((1, 2)), DimMismatch),
        (np.zeros(0, dtype=np.int64), np.zeros((0, 2)), DimMismatch),
        ([0, 2], np.array([[1.0, 2.0, 3.0], [np.inf, 0.0, 0.0]]), NonFiniteGradient),
        ([1], np.array([[np.nan, 0.0, 0.0]]), NonFiniteGradient),
    ])
    def test_rejected_call_leaves_table_unchanged(self, ids, grads, error):
        table = EmbeddingTable.uniform_init(4, 3, np.random.default_rng(6))
        adam_step(table, ([1, 3], np.full((2, 3), 0.25)), 1e-3)
        before = table_bytes(table)
        with pytest.raises(error):
            adam_step(table, (ids, grads), 1e-3)
        assert table_bytes(table) == before
        assert table.step_count == 1

    def test_bytes_equal_expression_form(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable.uniform_init(10, 4, rng)
        ref = table.copy()
        for step in range(12):
            # overlapping row sets, one of them empty, gradients over a wide range
            ids = np.flatnonzero(rng.random(10) < (0.0 if step == 5 else 0.6))
            grads = rng.normal(size=(ids.size, 4)) * 10.0 ** rng.uniform(-8, 4, size=(ids.size, 4))
            adam_step(table, (ids, grads), 0.03)
            adam_reference(ref, ids, grads, 0.03)
            assert table_bytes(table) == table_bytes(ref), step

    def test_does_not_mutate_grads(self):
        table = EmbeddingTable.uniform_init(5, 3, np.random.default_rng(8))
        grads = np.random.default_rng(9).normal(size=(3, 3))
        before = grads.tobytes()
        adam_step(table, (np.array([0, 2, 4]), grads), 0.1)
        assert grads.tobytes() == before


def add_at_reference(ids, rows, n):
    """The np.add.at scatter that a SegmentPlan's sum replaces."""
    ids = np.asarray(ids).ravel()
    out = np.zeros((n, rows.shape[-1]))
    np.add.at(out, ids, rows.reshape(len(ids), rows.shape[-1]))
    return out


def segment_cases():
    """200 seeded (ids, rows, n): d = 1 in a quarter of them, empty inputs,
    n above the largest id, magnitudes 1e-300 to 1e300 of either sign and
    -0.0 entries."""
    rng = np.random.default_rng(30)
    for case in range(200):
        n = int(rng.integers(1, 12))
        d = 1 if case % 4 == 0 else int(rng.integers(1, 6))
        count = int(rng.integers(0, 40))
        # ids below n - case % 3: the top ids are often absent, so n exceeds the largest id
        ids = rng.integers(0, max(1, n - case % 3), size=count)
        mag = 10.0 ** rng.uniform(-300, 300, size=(count, d))
        rows = rng.choice([-1.0, 1.0], size=(count, d)) * mag
        rows[rng.random((count, d)) < 0.1] = -0.0
        yield ids, rows, n


class TestSegmentSum:
    def test_bytes_equal_add_at(self):
        for ids, rows, n in segment_cases():
            got = segment_plan(ids, n).sum(rows)
            assert got.shape == (n, rows.shape[1]) and got.dtype == np.float64
            assert got.tobytes() == add_at_reference(ids, rows, n).tobytes()

    def test_negative_zero_terms_sum_to_positive_zero(self):
        got = segment_plan([1, 1], 3).sum(np.array([[-0.0], [-0.0]]))
        assert got.tobytes() == add_at_reference([1, 1], np.array([[-0.0], [-0.0]]), 3).tobytes()
        assert not np.signbit(got).any()

    def test_block_ids_and_empty(self):
        rng = np.random.default_rng(31)
        ids = rng.integers(0, 5, size=(3, 4))
        rows = rng.normal(size=(3, 4, 2))
        assert segment_plan(ids, 7).sum(rows).tobytes() == add_at_reference(ids, rows, 7).tobytes()
        empty = segment_plan([], 2).sum(np.zeros((0, 3)))
        assert empty.dtype == np.float64 and empty.tobytes() == np.zeros((2, 3)).tobytes()
        ids, sums = scatter_index(np.zeros(0, dtype=np.int64), 4).scatter(np.zeros((0, 3)))
        assert ids.size == 0 and sums.shape == (0, 3) and sums.dtype == np.float64

    def test_scatter_index_matches_unique_add_at(self):
        rng = np.random.default_rng(32)
        ids = rng.integers(0, 50, size=(16, 9))
        grads = rng.normal(size=(16, 9, 5))
        unique, sums = scatter_index(ids, 50).scatter(grads)
        ref_ids, inverse = np.unique(ids, return_inverse=True)
        np.testing.assert_array_equal(unique, ref_ids)
        assert sums.tobytes() == add_at_reference(inverse, grads, len(ref_ids)).tobytes()


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSegmentPlan:
    """A plan's sum: bytes equal np.add.at's on the shapes where the plan's
    step count is extreme or its input unusual."""

    def test_no_ids(self):
        ids = np.zeros(0, dtype=np.int64)
        rows = np.zeros((0, 4))
        for n in (0, 3):
            plan = segment_plan(ids, n)
            assert same_bytes(plan.sum(rows), add_at_reference(ids, rows, n))
            assert len(plan.offsets) == 1  # no steps

    def test_one_id_repeated_2000_times(self):
        rows = np.random.default_rng(37).normal(size=(2000, 3)) * 10.0 ** np.arange(3)
        ids = np.full(2000, 4)
        plan = segment_plan(ids, 6)
        assert len(plan.offsets) == 2001
        assert same_bytes(plan.sum(rows), add_at_reference(ids, rows, 6))

    def test_negative_zero_terms(self):
        rng = np.random.default_rng(38)
        ids = rng.integers(0, 5, size=60)
        rows = np.where(rng.random((60, 3)) < 0.5, -0.0, rng.normal(size=(60, 3)))
        rows[ids == 2] = -0.0
        got = segment_plan(ids, 7).sum(rows)
        assert same_bytes(got, add_at_reference(ids, rows, 7))
        assert not np.signbit(got[2]).any() and not np.signbit(got[5:]).any()

    def test_strided_rows(self):
        rng = np.random.default_rng(39)
        ids = rng.integers(0, 9, size=(6, 5))
        wide = rng.normal(size=(6, 5, 8))
        strided = wide[:, :, ::3]
        assert not strided.flags.c_contiguous
        assert same_bytes(segment_plan(ids, 9).sum(strided), add_at_reference(ids, strided, 9))

    def test_int_rows(self):
        rng = np.random.default_rng(40)
        ids = rng.integers(0, 4, size=30)
        rows = rng.integers(-(2 ** 40), 2 ** 40, size=(30, 2))
        got = segment_plan(ids, 4).sum(rows)
        assert got.dtype == np.float64
        assert same_bytes(got, add_at_reference(ids, rows, 4))

    @pytest.mark.parametrize("n", [3, 300, 70_000])  # ids sorted as uint8, uint16, uint32
    def test_any_id_width(self, n):
        rng = np.random.default_rng(n)
        ids = rng.integers(0, n, size=(40, 7))
        ids[:, 0] = n - 1
        rows = rng.normal(size=(40, 7, 2))
        assert same_bytes(segment_plan(ids, n).sum(rows), add_at_reference(ids, rows, n))

    def test_reused_plan_equals_one_built_in_place(self):
        rng = np.random.default_rng(41)
        ids = rng.integers(0, 12, size=(16, 9))
        plan = segment_plan(ids, 12)
        for d in (5, 1, 5):
            rows = rng.normal(size=(16, 9, d))
            assert same_bytes(plan.sum(rows), segment_plan(ids, 12).sum(rows))
        index = scatter_index(ids, 12)
        for d in (3, 2):
            grads = rng.normal(size=(16, 9, d))
            for got, want in zip(index.scatter(grads), scatter_index(ids, 12).scatter(grads)):
                assert same_bytes(got, want)

    def test_layout(self):
        # counts: id 2 three times, ids 0 and 3 twice (tied, by id), 1 once, 4 never
        plan = segment_plan([3, 2, 0, 2, 1, 3, 0, 2], 5)
        assert plan.slot.tolist() == [1, 3, 0, 2, 4]
        assert plan.offsets.tolist() == [0, 4, 7, 8]
        # step k: the k-th row, in input order, of each id in count order
        assert plan.order.tolist() == [1, 2, 0, 4, 3, 6, 5, 7]
        for arr in (plan.slot, plan.order, plan.offsets):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_id_not_below_n_raises(self):
        with pytest.raises(IdOutOfRange):
            segment_plan([0, 3, 1], 3)

    def test_rows_that_do_not_fit_raise(self):
        plan = segment_plan([0, 1, 1], 2)
        for rows in (np.zeros((2, 3)), np.zeros((4, 3))):
            with pytest.raises(DimMismatch):
                plan.sum(rows)


class TestChunkedSum:
    """A plan sum gathers its steps in groups of at most CHUNK_CELLS cells,
    or the largest step alone if that is bigger. With a few cells the
    groups split, and the largest steps fit no chunk."""

    @pytest.mark.parametrize("cells", [1, 8, 24])
    def test_bytes_equal_add_at(self, monkeypatch, cells):
        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        ws = Workspace()
        ws.empty(numkit.TERMS, (40 * 6,)).fill(np.nan)  # a used buffer, as a pass leaves it
        for ids, rows, n in segment_cases():
            want = add_at_reference(ids, rows, n).tobytes()
            plan = segment_plan(ids, n)
            assert plan.sum(rows).tobytes() == want
            assert plan.sum(rows, ws).tobytes() == want

    @pytest.mark.parametrize("cells,gathers", [(2, [4, 4]), (14, [7, 1]), (16, [8])])
    def test_steps_are_gathered_in_groups(self, monkeypatch, cells, gathers):
        # test_layout's plan: steps of 4, 3 and 1 rows; d = 2
        class Source(np.ndarray):
            def take(self, index, *args, **kwargs):
                taken.append(len(index))
                return super().take(index, *args, **kwargs)

        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        ids = [3, 2, 0, 2, 1, 3, 0, 2]
        rows = np.random.default_rng(42).normal(size=(8, 2))
        plan, taken = segment_plan(ids, 5), []
        got = plan.sum_take(rows.view(Source), plan.order)
        assert taken == gathers
        assert np.asarray(got).tobytes() == add_at_reference(ids, rows, 5).tobytes()


def product_block(rows, weights):
    """weights[b, ...] * rows[b] for every slot of the block, the block a
    weighted scatter does not build."""
    return weights[..., None] * rows[(slice(None), *[None] * (weights.ndim - 1))]


def weighted_reference(ids, rows, weights, n):
    """np.add.at of weights[b, ...] * rows[b] into the slots' ids."""
    return add_at_reference(ids, product_block(rows, weights), n)


def weighted_cases():
    """150 seeded (ids, rows, weights, n): 1-D blocks in a third of them,
    empty ones of either axis, rows of 1e-100 to 1e100 and weights with
    +0.0 and -0.0 entries."""
    rng = np.random.default_rng(70)
    for case in range(150):
        n, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        shape = tuple(int(k) for k in rng.integers(0, 8, size=1 if case % 3 == 0 else 2))
        ids = rng.integers(0, n, size=shape)
        rows = rng.normal(size=(shape[0], d)) * 10.0 ** rng.uniform(-100, 100, size=(shape[0], d))
        weights = rng.normal(size=shape)
        weights[rng.random(shape) < 0.2] = -0.0
        weights[rng.random(shape) < 0.1] = 0.0
        yield ids, rows, weights, n


class TestWeightedScatter:
    """scatter(rows, ws, weights=w) sums w[b, m] * rows[b] per slot: the
    bytes of scattering the products' block, and of np.add.at."""

    @pytest.mark.parametrize("cells", [1, 8, numkit.CHUNK_CELLS])
    def test_bytes_equal_the_product_block_and_add_at(self, monkeypatch, cells):
        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        ws = Workspace()
        for ids, rows, weights, n in weighted_cases():
            index = scatter_index(ids, n)
            want = weighted_reference(index.inverse, rows, weights, len(index.unique))
            block = product_block(rows, weights)
            for workspace in (None, ws):
                ws.empty(numkit.TERMS, (64,)).fill(np.nan)  # a used buffer, as a pass leaves it
                got_ids, got = index.scatter(rows, workspace, weights=weights)
                assert got_ids.tobytes() == index.unique.tobytes() and same_bytes(got, want)
                assert same_bytes(index.scatter(block, workspace)[1], want)

    def test_an_id_of_zero_terms_sums_to_positive_zero(self):
        ids = np.array([[0, 1], [0, 2], [2, 0]])
        rows = np.array([[-1.0, 2.0], [3.0, -4.0], [-5.0, 6.0]])
        weights = np.array([[-0.0, 1.5], [0.0, -2.0], [0.5, -0.0]])  # id 0: only zero weights
        assert np.signbit(product_block(rows, weights)).any()
        for ws in (None, Workspace()):
            unique, got = scatter_index(ids, 3).scatter(rows, ws, weights=weights)
            assert same_bytes(got, weighted_reference(ids, rows, weights, 3))
            assert unique.tolist() == [0, 1, 2] and got[0].tobytes() == np.zeros(2).tobytes()
            assert not np.any(np.signbit(got) & (got == 0.0))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0,)])
    def test_empty_blocks(self, shape):
        index = scatter_index(np.zeros(shape, dtype=np.int64), 5)
        for ws in (None, Workspace()):
            ids, sums = index.scatter(np.ones((shape[0], 3)), ws, weights=np.ones(shape))
            assert ids.size == 0 and sums.shape == (0, 3) and sums.dtype == np.float64

    def test_rows_or_weights_that_do_not_fit_raise(self):
        index = scatter_index(np.array([[0, 1, 1], [2, 0, 1]]), 3)
        rows, weights = np.ones((2, 4)), np.ones((2, 3))
        for bad_rows, bad_weights in ((rows, np.ones((2, 2))), (rows, np.ones(6)),
                                      (np.ones((3, 4)), weights), (np.ones((2, 3, 4)), weights),
                                      (np.ones(2), weights)):
            with pytest.raises(DimMismatch):
                index.scatter(bad_rows, weights=bad_weights)


class Recorded(np.ndarray):
    """A table that records the id count of every take from it."""

    def take(self, ids, *args, **kwargs):
        taken.append(np.size(ids))
        return super().take(ids, *args, **kwargs)


taken = []


def contraction_cases():
    """Seeded (table, ids, (B, d) left, (B, M) left) with +-0.0 and
    magnitudes 1e-100..1e100: blocks of several chunks at 64 cells whose
    row count is no multiple of the chunk's, rows larger than 64 cells,
    and empty blocks of either axis."""
    rng = np.random.default_rng(80)
    for b, m, d in [(13, 3, 4), (9, 2, 5), (7, 5, 20), (3, 40, 2), (1, 3, 4),
                    (0, 3, 4), (5, 0, 4), (0, 0, 2), *rng.integers(1, 9, size=(30, 3)).tolist()]:
        table = rng.normal(size=(11, d)) * 10.0 ** rng.uniform(-100, 100, size=(11, d))
        table[rng.random(table.shape) < 0.1] = -0.0
        ids = rng.integers(0, 11, size=(b, m))
        left_d, left_m = rng.normal(size=(b, d)), rng.normal(size=(b, m))
        left_m[rng.random(left_m.shape) < 0.2] = -0.0
        yield table, ids, left_d, left_m


class TestEinsumRows:
    """einsum_rows(subscripts, left, table, ids) returns the bytes of the
    one-shot np.einsum over table.take(ids, axis=0), gathering runs of
    block rows of at most CHUNK_CELLS cells (or one row)."""

    @pytest.mark.parametrize("cells", [1, 64, numkit.CHUNK_CELLS])
    def test_bytes_equal_the_one_shot_einsum(self, monkeypatch, cells):
        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        ws = Workspace()
        for table, ids, left_d, left_m in contraction_cases():
            rows = table.take(ids, axis=0)
            for subscripts, left in (("bd,bmd->bm", left_d), ("bm,bmd->bd", left_m)):
                want = np.einsum(subscripts, left, rows)
                for workspace in (None, ws):
                    ws.empty(numkit.TERMS, (256,)).fill(np.nan)  # a used buffer
                    got = einsum_rows(subscripts, left, table, ids, workspace)
                    assert same_bytes(got, want), (subscripts, ids.shape, table.shape)

    @pytest.mark.parametrize("cells,runs", [(64, [15, 15, 6]), (24, [6] * 6), (7, [3] * 12),
                                            (1 << 16, [36])])
    def test_rows_are_gathered_in_runs(self, monkeypatch, cells, runs):
        # 12 block rows of 3 ids, d = 4: a row is 12 cells, so 64 cells hold
        # 5 rows and 7 cells none, which gathers one row at a time
        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(81)
        table, ids = rng.normal(size=(6, 4)), rng.integers(0, 6, size=(12, 3))
        for subscripts, left in (("bd,bmd->bm", rng.normal(size=(12, 4))),
                                 ("bm,bmd->bd", rng.normal(size=(12, 3)))):
            taken.clear()
            got = einsum_rows(subscripts, left, table.view(Recorded), ids)
            assert taken == runs
            assert same_bytes(np.asarray(got), np.einsum(subscripts, left, table[ids]))

    @pytest.mark.parametrize("bad", [-1, 11])
    def test_an_id_out_of_range_raises_before_any_gather(self, bad):
        table = np.ones((11, 2)).view(Recorded)
        ids = np.zeros((3, 2), dtype=np.int64)
        ids[2, 1] = bad
        for workspace in (None, Workspace()):
            for subscripts, left in (("bd,bmd->bm", np.ones((3, 2))),
                                     ("bm,bmd->bd", np.ones((3, 2)))):
                taken.clear()
                with pytest.raises(IdOutOfRange):
                    einsum_rows(subscripts, left, table, ids, workspace)
                assert taken == []

    def test_other_subscripts_or_a_left_that_does_not_fit_raise(self):
        table, ids = np.ones((4, 3)), np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(ValueError):
            einsum_rows("bd,bmd->bd", np.ones((2, 3)), table, ids)
        for subscripts, left in (("bd,bmd->bm", np.ones((2, 5))), ("bm,bmd->bd", np.ones((2, 3))),
                                 ("bm,bmd->bd", np.ones((3, 5)))):
            with pytest.raises(DimMismatch):
                einsum_rows(subscripts, left, table, ids)


class TestChunkedAdam:
    """adam_step updates its rows in chunks whose four (rows, d) arrays fit
    CHUNK_CELLS cells; each cell gets the unchunked update's bytes."""

    @pytest.mark.parametrize("cells", [1, 40, 200, numkit.CHUNK_CELLS])
    def test_bytes_equal_the_unchunked_update(self, monkeypatch, cells):
        # d = 5: 40 cells give chunks of 2 rows, 200 of 10, 1 of one row
        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(82)
        table = EmbeddingTable.uniform_init(37, 5, rng)
        ref = table.copy()
        run = max(cells // (4 * 5), 1)
        for step in range(6):
            ids = rng.permutation(37)[:int(rng.integers(23, 37))]  # unsorted, unique
            grads = rng.normal(size=(ids.size, 5)) * 10.0 ** rng.uniform(-8, 4, size=(ids.size, 5))
            assert ids.size > 2 * run or cells == numkit.CHUNK_CELLS  # three chunks or more
            adam_step(table, (ids, grads), 0.03)
            # the unchunked update, as one expression per moment
            ref.step_count += 1
            t = ref.step_count
            m = ADAM_BETA1 * ref.adam_m[ids] + (1.0 - ADAM_BETA1) * grads
            v = ADAM_BETA2 * ref.adam_v[ids] + (1.0 - ADAM_BETA2) * (grads * grads)
            ref.values[ids] -= lr_step(m, v, t, 0.03)
            ref.adam_m[ids], ref.adam_v[ids] = m, v
            assert table_bytes(table) == table_bytes(ref), step
            assert table.step_count == step + 1

    def test_a_rejected_block_leaves_the_table_as_it_was(self, monkeypatch):
        monkeypatch.setattr(numkit, "CHUNK_CELLS", 20)  # one row of d = 5 per chunk
        table = EmbeddingTable.uniform_init(6, 5, np.random.default_rng(83))
        adam_step(table, ([1, 4, 0], np.full((3, 5), 0.5)), 1e-3)
        before = table_bytes(table)
        grads = np.ones((4, 5))
        grads[3, 2] = np.nan  # in the last chunk
        with pytest.raises(NonFiniteGradient):
            adam_step(table, ([0, 1, 2, 3], grads), 1e-3)
        assert table_bytes(table) == before


def lr_step(m, v, t, lr):
    """lr * m_hat / (sqrt(v_hat) + eps) at step t, in adam_step's order."""
    return lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)


COMPACT_CASES = {
    "empty": (np.zeros(0, dtype=np.int64), 5),
    "empty-n0": (np.zeros(0, dtype=np.int64), 0),
    "one": (np.array([3]), 4),
    "ends": (np.array([9, 0, 9, 0]), 10),
    "repeated": (np.array([2, 2, 2, 5, 2]), 6),
    "2d": (np.random.default_rng(34).integers(0, 50, size=(16, 9)), 64),
    "2d-all": (np.random.default_rng(35).permutation(12).reshape(3, 4), 12),
}


class TestCompactIds:
    @pytest.mark.parametrize("case", list(COMPACT_CASES))
    def test_equals_unique_with_inverse(self, case):
        ids, n = COMPACT_CASES[case]
        unique, inverse = compact_ids(ids, n)
        ref_unique, ref_inverse = np.unique(ids, return_inverse=True)
        for got, ref in ((unique, ref_unique), (inverse, ref_inverse)):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_random_blocks_equal_unique(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            ids = rng.integers(0, n, size=tuple(rng.integers(0, 6, size=2)))
            got = compact_ids(ids, n)
            ref = np.unique(ids, return_inverse=True)
            assert all(a.tobytes() == b.tobytes() and a.shape == b.shape
                       for a, b in zip(got, ref))


def two_node_adjacency():
    return NormAdjacency.from_undirected_edges(2, [(0, 1)])


class TestPropagate:
    def test_zero_layers_identity(self):
        adj = two_node_adjacency()
        x = np.random.default_rng(0).normal(size=(2, 3))
        np.testing.assert_array_equal(propagate(x, adj, 0), x)

    def test_single_edge_one_layer(self):
        adj = two_node_adjacency()
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        out = propagate(x, adj, 1)
        np.testing.assert_allclose(out, (x + x[::-1]) / 2.0, atol=1e-15)

    def test_isolated_node_two_layers(self):
        # nodes 0-1 connected, node 2 isolated
        adj = NormAdjacency.from_undirected_edges(3, [(0, 1)])
        x = np.random.default_rng(1).normal(size=(3, 4))
        out = propagate(x, adj, 2)
        np.testing.assert_allclose(out[2], x[2] / 3.0, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        adj = NormAdjacency.from_undirected_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        lhs = propagate(x + y, adj, 3)
        rhs = propagate(x, adj, 3) + propagate(y, adj, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_symmetric_normalization_weights(self):
        adj = NormAdjacency.from_undirected_edges(4, [(0, 1), (0, 2), (0, 3)])
        # deg(0)=3, deg(others)=1 -> weight 1/sqrt(3)
        edges = list(zip(adj.rows.tolist(), adj.cols.tolist(), adj.weights.tolist()))
        for r, c, w in edges:
            assert w == pytest.approx(1.0 / np.sqrt(3.0))
        # symmetry: (r, c, w) present iff (c, r, w) present
        entries = {(r, c): w for r, c, w in edges}
        for (r, c), w in entries.items():
            assert entries[(c, r)] == w

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            propagate(np.zeros((3, 2)), two_node_adjacency(), 1)


class TestPropagateBackward:
    def test_zero_layers(self):
        adj = two_node_adjacency()
        g = np.random.default_rng(3).normal(size=(2, 2))
        np.testing.assert_array_equal(propagate_backward(g, adj, 0), g)

    def test_symmetric_operator_identity(self):
        adj = NormAdjacency.from_undirected_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)])
        g = np.random.default_rng(4).normal(size=(6, 3))
        np.testing.assert_array_equal(propagate_backward(g, adj, 2), propagate(g, adj, 2))

    def test_finite_difference(self):
        rng = np.random.default_rng(5)
        adj = NormAdjacency.from_undirected_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        w = rng.normal(size=(5, 2))  # loss = sum(w * propagate(x))

        def loss(x):
            return float(np.sum(w * propagate(x.reshape(5, 2), adj, 2)))

        x0 = rng.normal(size=(5, 2))
        analytic = propagate_backward(w, adj, 2)
        numeric = central_difference(loss, x0.ravel()).reshape(5, 2)
        assert max_rel_error(analytic, numeric) < 1e-6


class TestEmbeddingTable:
    def test_uniform_init_bounds_and_norms(self):
        table = EmbeddingTable.uniform_init(50, 16, np.random.default_rng(6))
        bound = 0.5 / np.sqrt(16)
        assert np.all(np.abs(table.values) <= bound)
        assert np.all(np.linalg.norm(table.values, axis=1) > 1e-12)
        assert table.adam_m.shape == table.values.shape
        assert np.all(table.adam_v >= 0.0)

    def test_copy_is_independent(self):
        table = EmbeddingTable.uniform_init(3, 2, np.random.default_rng(7))
        clone = table.copy()
        clone.values[0, 0] += 1.0
        assert table.values[0, 0] != clone.values[0, 0]


class TestWorkspace:
    def test_a_role_hands_out_views_of_one_buffer_grown_on_demand(self):
        ws = Workspace()
        a = ws.empty("rows", (2, 3, 4))
        a[...] = 1.0
        b = ws.empty("rows", (5, 4))  # smaller: the same memory
        assert b.shape == (5, 4) and np.shares_memory(a, b)
        assert not np.shares_memory(a, ws.empty("terms", (2, 3, 4)))
        c = ws.empty("rows", (7, 4))  # larger: a new buffer
        assert c.dtype == np.float64 and c.flags.c_contiguous
        assert not np.shares_memory(a, c)
        assert np.shares_memory(c, ws.empty("rows", (3,)))

    def test_exit_drops_every_buffer(self):
        with Workspace() as ws:
            a = ws.empty("rows", (4,))
        assert not np.shares_memory(a, ws.empty("rows", (4,)))

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (0,)])
    def test_take_rows_equals_take(self, shape):
        rng = np.random.default_rng(60)
        table = rng.normal(size=(6, 3))
        ids = rng.integers(0, 6, size=shape)
        want = table.take(ids, axis=0)
        for ws in (None, Workspace()):
            got = take_rows(table, ids, ws)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [6, -1])
    def test_take_rows_rejects_an_id_out_of_range(self, bad):
        # clip mode would read row 5 or row 0 instead
        table = np.arange(12.0).reshape(6, 2)
        for ws in (None, Workspace()):
            with pytest.raises(IdOutOfRange):
                take_rows(table, [[0, bad]], ws)

    def test_plan_sum_through_a_workspace_equals_add_at(self):
        rng = np.random.default_rng(61)
        ids = rng.integers(0, 7, size=(5, 4))
        rows = rng.normal(size=(5, 4, 3))
        ws = Workspace()
        want = add_at_reference(ids, rows, 7)
        for _ in range(2):
            assert same_bytes(segment_plan(ids, 7).sum(rows, ws), want)
            assert same_bytes(scatter_index(ids, 7).scatter(rows, ws)[1],
                              scatter_index(ids, 7).scatter(rows)[1])

    def test_check_row_grads_checks_as_adam_step_does(self):
        table = EmbeddingTable.zeros(4, 2)
        ids, grads = check_row_grads(table, ([1, 3], [[1, 2], [3, 4]]))
        assert ids.dtype == np.int64 and grads.dtype == np.float64
        with pytest.raises(DimMismatch):
            check_row_grads(table, ([1], np.zeros((1, 3))))
        with pytest.raises(NonFiniteGradient):
            check_row_grads(table, ([1], [[0.0, np.inf]]))
        assert table.step_count == 0
