"""Kernel tests: cosine scoring, sparse Adam, graph propagation."""

import numpy as np
import pytest

from advrec.errors import DimMismatch, NonFiniteGradient, ZeroNormError
from advrec.numkit import (
    AdamHyper,
    EmbeddingTable,
    NormAdjacency,
    adam_step,
    compact_ids,
    cosine_score,
    cosine_score_grad,
    propagate,
    propagate_backward,
    scatter_rows,
    segment_sum,
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


def scalar_adam_reference(w0, grads, hyper):
    """Independent per-coordinate Adam, bias-corrected."""
    w, m, v = float(w0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = hyper.beta1 * m + (1.0 - hyper.beta1) * g
        v = hyper.beta2 * v + (1.0 - hyper.beta2) * g * g
        m_hat = m / (1.0 - hyper.beta1**t)
        v_hat = v / (1.0 - hyper.beta2**t)
        w -= hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
    return w


def adam_reference(table, ids, grads, hyper):
    """The expression form of adam_step that the in-place update replaced."""
    table.step_count += 1
    t = table.step_count
    m = hyper.beta1 * table.adam_m[ids]
    m += (1.0 - hyper.beta1) * grads
    v = hyper.beta2 * table.adam_v[ids]
    v += (1.0 - hyper.beta2) * (grads * grads)
    m_hat = m / (1.0 - hyper.beta1**t)
    v_hat = v / (1.0 - hyper.beta2**t)
    table.values[ids] -= hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
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
        adam_step(table, (np.zeros(0, dtype=np.int64), np.zeros((0, 3))), AdamHyper())
        np.testing.assert_array_equal(table.values, before)
        assert table.step_count == 1

    def test_first_step_is_signed_lr(self):
        table = EmbeddingTable.uniform_init(3, 4, np.random.default_rng(1))
        before = table.values[1].copy()
        g = np.array([0.5, -2.0, 1e3, -1e-2])
        hyper = AdamHyper(lr=0.01)
        adam_step(table, ([1], g[None, :]), hyper)
        delta = table.values[1] - before
        np.testing.assert_allclose(delta, -hyper.lr * np.sign(g), rtol=1e-5)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable.uniform_init(2, 5, rng)
        hyper = AdamHyper(lr=0.07)
        g1 = rng.normal(size=5)
        w0 = table.values[0].copy()
        adam_step(table, ([0], g1[None, :]), hyper)
        adam_step(table, ([0], g1[None, :]), hyper)
        expected = np.array([
            scalar_adam_reference(w0[d], [g1[d], g1[d]], hyper) for d in range(5)
        ])
        np.testing.assert_allclose(table.values[0], expected, atol=1e-12)

    def test_lazy_rows_untouched(self):
        table = EmbeddingTable.uniform_init(5, 3, np.random.default_rng(4))
        before = table.values.copy()
        adam_step(table, ([2], np.ones((1, 3))), AdamHyper())
        mask = np.ones(5, dtype=bool)
        mask[2] = False
        np.testing.assert_array_equal(table.values[mask], before[mask])
        assert np.all(table.adam_m[mask] == 0.0)

    def test_deterministic(self):
        def run():
            table = EmbeddingTable.uniform_init(4, 3, np.random.default_rng(9))
            rng = np.random.default_rng(10)
            for _ in range(5):
                adam_step(table, ([int(rng.integers(0, 4))], rng.normal(size=(1, 3))),
                          AdamHyper())
            return table.values.tobytes()

        assert run() == run()

    def test_nonfinite_gradient_raises(self):
        table = EmbeddingTable.uniform_init(2, 2, np.random.default_rng(5))
        with pytest.raises(NonFiniteGradient):
            adam_step(table, ([0], np.array([[np.nan, 1.0]])), AdamHyper())

    @pytest.mark.parametrize("ids,grads,error", [
        ([0, 1], np.ones((1, 3)), DimMismatch),
        ([1], np.ones((1, 2)), DimMismatch),
        (np.zeros(0, dtype=np.int64), np.zeros((0, 2)), DimMismatch),
        ([0, 2], np.array([[1.0, 2.0, 3.0], [np.inf, 0.0, 0.0]]), NonFiniteGradient),
        ([1], np.array([[np.nan, 0.0, 0.0]]), NonFiniteGradient),
    ])
    def test_rejected_call_leaves_table_unchanged(self, ids, grads, error):
        table = EmbeddingTable.uniform_init(4, 3, np.random.default_rng(6))
        adam_step(table, ([1, 3], np.full((2, 3), 0.25)), AdamHyper())
        before = table_bytes(table)
        with pytest.raises(error):
            adam_step(table, (ids, grads), AdamHyper())
        assert table_bytes(table) == before
        assert table.step_count == 1

    def test_bytes_equal_expression_form(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable.uniform_init(10, 4, rng)
        ref = table.copy()
        hyper = AdamHyper(lr=0.03)
        for step in range(12):
            # overlapping row sets, one of them empty, gradients over a wide range
            ids = np.flatnonzero(rng.random(10) < (0.0 if step == 5 else 0.6))
            grads = rng.normal(size=(ids.size, 4)) * 10.0 ** rng.uniform(-8, 4, size=(ids.size, 4))
            adam_step(table, (ids, grads), hyper)
            adam_reference(ref, ids, grads, hyper)
            assert table_bytes(table) == table_bytes(ref), step

    def test_does_not_mutate_grads(self):
        table = EmbeddingTable.uniform_init(5, 3, np.random.default_rng(8))
        grads = np.random.default_rng(9).normal(size=(3, 3))
        before = grads.tobytes()
        adam_step(table, (np.array([0, 2, 4]), grads), AdamHyper(lr=0.1))
        assert grads.tobytes() == before


def add_at_reference(ids, rows, n):
    """The np.add.at scatter that segment_sum replaces."""
    ids = np.asarray(ids).ravel()
    out = np.zeros((n, rows.shape[-1]))
    np.add.at(out, ids, rows.reshape(len(ids), rows.shape[-1]))
    return out


class TestSegmentSum:
    def test_bytes_equal_add_at(self):
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
            got = segment_sum(ids, rows, n)
            assert got.shape == (n, d) and got.dtype == np.float64
            assert got.tobytes() == add_at_reference(ids, rows, n).tobytes()

    def test_negative_zero_terms_sum_to_positive_zero(self):
        got = segment_sum([1, 1], np.array([[-0.0], [-0.0]]), 3)
        assert got.tobytes() == add_at_reference([1, 1], np.array([[-0.0], [-0.0]]), 3).tobytes()
        assert not np.signbit(got).any()

    def test_block_ids_and_empty(self):
        rng = np.random.default_rng(31)
        ids = rng.integers(0, 5, size=(3, 4))
        rows = rng.normal(size=(3, 4, 2))
        assert segment_sum(ids, rows, 7).tobytes() == add_at_reference(ids, rows, 7).tobytes()
        empty = segment_sum([], np.zeros((0, 3)), 2)
        assert empty.dtype == np.float64 and empty.tobytes() == np.zeros((2, 3)).tobytes()
        ids, sums = scatter_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4)
        assert ids.size == 0 and sums.shape == (0, 3) and sums.dtype == np.float64

    def test_scatter_rows_matches_unique_add_at(self):
        rng = np.random.default_rng(32)
        ids = rng.integers(0, 50, size=(16, 9))
        grads = rng.normal(size=(16, 9, 5))
        unique, sums = scatter_rows(ids, grads, 50)
        ref_ids, inverse = np.unique(ids, return_inverse=True)
        np.testing.assert_array_equal(unique, ref_ids)
        assert sums.tobytes() == add_at_reference(inverse, grads, len(ref_ids)).tobytes()

    def test_scatter_rows_with_passed_compaction(self):
        rng = np.random.default_rng(33)
        ids = rng.integers(0, 30, size=(8, 6))
        grads = rng.normal(size=(8, 6, 3))
        unique, sums = scatter_rows(ids, grads, 40)
        passed_ids, passed_sums = scatter_rows(ids, grads, 40, compact_ids(ids, 40))
        assert passed_ids.tobytes() == unique.tobytes()
        assert passed_sums.tobytes() == sums.tobytes()


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
        for r, c, w in adj.edges():
            assert w == pytest.approx(1.0 / np.sqrt(3.0))
        # symmetry: (r, c, w) present iff (c, r, w) present
        entries = {(r, c): w for r, c, w in adj.edges()}
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
