"""Backbone scoring and backward tests, including the full graph chain."""

import numpy as np
import pytest

from advrec.encoder import (
    batch_backward,
    batch_forward,
    build_encoder,
    build_norm_adjacency,
    representations,
    score,
    score_backward,
)
from advrec.errors import IdOutOfRange
from advrec.numkit import cosine_score, cosine_score_grad

from conftest import max_rel_error, tiny_dataset


def mf_encoder(n_users=4, n_items=6, dim=3, tau=0.5, seed=0):
    return build_encoder("mf", n_users, n_items, dim, tau, seed)


def gcn_encoder(dataset, dim=3, tau=0.5, seed=0, layers=2):
    return build_encoder("lightgcn", dataset.n_users, dataset.n_items, dim,
                         tau, seed, layers=layers, train_pairs=dataset.train_pairs)


class TestScore:
    def test_identical_rows_score_one_over_tau(self):
        enc = mf_encoder(tau=1.0)
        enc.item_table.values[2] = enc.user_table.values[1]
        assert score(enc, 1, [2])[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference_recomputation(self):
        enc = mf_encoder(seed=3, tau=0.3)
        for u in range(enc.n_users):
            items = np.arange(enc.n_items)
            got = score(enc, u, items)
            want = [cosine_score(enc.user_table.values[u],
                                 enc.item_table.values[i], enc.tau) for i in items]
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_scale_invariance_of_rows(self):
        enc = mf_encoder(seed=4)
        base = score(enc, 0, [1, 2])
        enc.user_table.values[0] *= 7.5
        enc.item_table.values[1] *= 0.02
        np.testing.assert_allclose(score(enc, 0, [1, 2]), base, atol=1e-10)

    def test_zero_layers_graph_equals_mf(self, small_dataset):
        mf = build_encoder("mf", small_dataset.n_users, small_dataset.n_items,
                           3, 0.4, seed=5)
        gcn = gcn_encoder(small_dataset, tau=0.4, seed=5, layers=0)
        items = np.arange(small_dataset.n_items)
        for u in range(small_dataset.n_users):
            np.testing.assert_array_equal(score(mf, u, items), score(gcn, u, items))

    def test_deterministic_construction(self, small_dataset):
        a = gcn_encoder(small_dataset, seed=11)
        b = gcn_encoder(small_dataset, seed=11)
        np.testing.assert_array_equal(a.user_table.values, b.user_table.values)
        np.testing.assert_array_equal(score(a, 0, [0, 1]), score(b, 0, [0, 1]))

    def test_id_out_of_range(self):
        enc = mf_encoder()
        with pytest.raises(IdOutOfRange):
            score(enc, 99, [0])
        with pytest.raises(IdOutOfRange):
            score(enc, 0, [99])

    def test_graph_adjacency_is_bipartite(self, small_dataset):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        n_users = small_dataset.n_users
        for r, c, _ in adj.edges():
            assert (r < n_users) != (c < n_users)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("inf"), float("nan")])
def test_encoder_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        mf_encoder(tau=tau)


class TestScoreBackward:
    def test_zero_upstream_gives_empty_maps(self):
        enc = mf_encoder(seed=6)
        user_map, item_map = score_backward(enc, 0, [1, 2], np.zeros(2))
        assert user_map == {} and item_map == {}

    def test_single_item_matches_cosine_grad(self):
        enc = mf_encoder(seed=7)
        user_map, item_map = score_backward(enc, 1, [3], np.array([1.0]))
        grad_u, grad_v = cosine_score_grad(enc.user_table.values[1],
                                           enc.item_table.values[3], enc.tau)
        np.testing.assert_allclose(user_map[1], grad_u, atol=1e-14)
        np.testing.assert_allclose(item_map[3], grad_v, atol=1e-14)

    def test_mf_finite_difference(self):
        rng = np.random.default_rng(8)
        enc = mf_encoder(seed=8, dim=4)
        u = 2
        items = np.array([0, 3, 3, 5])  # includes a repeated item
        upstream = rng.normal(size=4)
        user_map, item_map = score_backward(enc, u, items, upstream)

        def total_loss():
            return float(upstream @ score(enc, u, items))

        worst = self._fd_check(enc, user_map, item_map, total_loss)
        assert worst < 1e-6

    def test_lightgcn_finite_difference_small_graph(self):
        # <= 10-node graph: 4 users x 5 items
        dataset = tiny_dataset(n_users=4, n_items=5, seed=9)
        enc = gcn_encoder(dataset, dim=3, seed=9, layers=2)
        rng = np.random.default_rng(10)
        u = 1
        items = np.array([0, 2, 4])
        upstream = rng.normal(size=3)
        user_map, item_map = score_backward(enc, u, items, upstream)
        # propagation spreads gradient beyond the scored rows
        assert len(user_map) + len(item_map) > 4

        def total_loss():
            return float(upstream @ score(enc, u, items))

        worst = self._fd_check(enc, user_map, item_map, total_loss)
        assert worst < 1e-5

    @staticmethod
    def _fd_check(enc, user_map, item_map, total_loss, h=1e-6):
        worst = 0.0
        for table, grad_map in ((enc.user_table, user_map), (enc.item_table, item_map)):
            for row, grad in grad_map.items():
                for d in range(table.dim):
                    orig = table.values[row, d]
                    table.values[row, d] = orig + h
                    up = total_loss()
                    table.values[row, d] = orig - h
                    down = total_loss()
                    table.values[row, d] = orig
                    worst = max(worst, max_rel_error(grad[d], (up - down) / (2 * h),
                                                     floor=1e-6))
        return worst

    def test_zero_layers_graph_matches_mf_gradients(self, small_dataset):
        mf = build_encoder("mf", small_dataset.n_users, small_dataset.n_items,
                           3, 0.4, seed=12)
        gcn = gcn_encoder(small_dataset, tau=0.4, seed=12, layers=0)
        upstream = np.array([0.3, -1.2])
        a = score_backward(mf, 1, [0, 2], upstream)
        b = score_backward(gcn, 1, [0, 2], upstream)
        for ma, mb in zip(a, b):
            assert ma.keys() == mb.keys()
            for key in ma:
                np.testing.assert_array_equal(ma[key], mb[key])


class TestBatchPath:
    def test_batch_forward_matches_scalar_path(self):
        enc = mf_encoder(seed=13, n_users=5, n_items=7)
        users = np.array([0, 2, 4])
        items = np.array([[1, 5], [0, 3], [6, 6]])
        scores, _ = batch_forward(enc, users, items)
        for b, u in enumerate(users):
            np.testing.assert_allclose(scores[b], score(enc, int(u), items[b]), atol=1e-14)

    def test_batch_backward_accumulates_like_per_pair(self):
        dataset = tiny_dataset(n_users=5, n_items=6, seed=14)
        enc = gcn_encoder(dataset, dim=3, seed=14)
        rng = np.random.default_rng(15)
        users = np.array([0, 3, 0])
        items = np.array([[1, 2], [4, 0], [2, 5]])
        upstream = rng.normal(size=(3, 2))
        _, cache = batch_forward(enc, users, items)
        (u_ids, u_grads), (i_ids, i_grads) = batch_backward(enc, cache, upstream)
        # reference: accumulate per-pair contract calls
        ref_user = {}
        ref_item = {}
        for b in range(3):
            um, im = score_backward(enc, int(users[b]), items[b], upstream[b])
            for r, g in um.items():
                ref_user[r] = ref_user.get(r, 0) + g
            for r, g in im.items():
                ref_item[r] = ref_item.get(r, 0) + g
        for r, g in zip(u_ids, u_grads):
            np.testing.assert_allclose(g, ref_user[int(r)], atol=1e-12)
        for r, g in zip(i_ids, i_grads):
            np.testing.assert_allclose(g, ref_item[int(r)], atol=1e-12)


def apply_reference(adj, x):
    """NormAdjacency.apply as one np.add.at scatter."""
    out = np.zeros_like(x)
    np.add.at(out, adj.rows, adj.weights[:, None] * x[adj.cols])
    return out


def graph_backward_reference(enc, cache, upstream):
    """The graph branch of batch_backward with its two np.add.at scatters and
    np.add.at propagation."""
    up = upstream / enc.tau
    c = cache
    coef_i = up / (c.u_norm[:, None] * c.i_norm)
    d_i = coef_i[..., None] * c.u_rep[:, None, :] \
        - (up * c.cos / c.i_norm**2)[..., None] * c.i_rep
    d_u = np.einsum("bm,bmd->bd", coef_i, c.i_rep) \
        - (np.sum(up * c.cos, axis=1) / c.u_norm**2)[:, None] * c.u_rep
    node_grad = np.zeros((enc.n_users + enc.n_items, enc.dim))
    np.add.at(node_grad, c.users, d_u)
    np.add.at(node_grad, enc.n_users + c.items.ravel(), d_i.reshape(-1, enc.dim))
    acc = current = node_grad
    for _ in range(enc.layers):  # propagate_backward, on apply_reference
        current = apply_reference(enc.adj, current)
        acc = acc + current
    layer0_grad = acc / (enc.layers + 1)
    nz = np.flatnonzero(np.any(layer0_grad != 0.0, axis=1))
    u_ids = nz[nz < enc.n_users]
    i_ids = nz[nz >= enc.n_users] - enc.n_users
    return (u_ids, layer0_grad[u_ids]), (i_ids, layer0_grad[i_ids + enc.n_users])


def mf_backward_reference(enc, cache, upstream):
    """The MF branch of batch_backward as it was written with np.unique and
    np.add.at, and with the item gradient built by one subtraction."""
    up = upstream / enc.tau
    c = cache
    coef_i = up / (c.u_norm[:, None] * c.i_norm)
    d_i = coef_i[..., None] * c.u_rep[:, None, :] \
        - (up * c.cos / c.i_norm**2)[..., None] * c.i_rep
    d_u = np.einsum("bm,bmd->bd", coef_i, c.i_rep) \
        - (np.sum(up * c.cos, axis=1) / c.u_norm**2)[:, None] * c.u_rep
    out = []
    for ids, grads in ((c.users, d_u), (c.items, d_i)):
        unique, inverse = np.unique(ids, return_inverse=True)
        sums = np.zeros((len(unique), enc.dim))
        np.add.at(sums, inverse.ravel(), grads.reshape(-1, enc.dim))
        out.append((unique, sums))
    return tuple(out)


class TestItemNormsOncePerItem:
    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_i_norm_bytes_equal_norm_of_gather(self, small_dataset, backbone):
        enc = (mf_encoder(small_dataset.n_users, small_dataset.n_items, dim=5, seed=44)
               if backbone == "mf" else gcn_encoder(small_dataset, dim=5, seed=44))
        rng = np.random.default_rng(45)
        users = rng.integers(0, small_dataset.n_users, size=9)
        items = rng.integers(0, small_dataset.n_items, size=(9, 6))
        items[3] = items[0, 0]  # one item repeated across a row and between rows
        _, cache = batch_forward(enc, users, items)
        assert cache.i_norm.tobytes() == np.linalg.norm(cache.i_rep, axis=-1).tobytes()

    def test_mf_backward_equals_unique_add_at(self):
        enc = mf_encoder(n_users=7, n_items=9, dim=4, seed=46)
        rng = np.random.default_rng(47)
        users = rng.integers(0, 7, size=15)
        items = rng.integers(0, 9, size=(15, 4))
        upstream = rng.normal(size=(15, 4))
        _, cache = batch_forward(enc, users, items)
        got = batch_backward(enc, cache, upstream)
        ref = mf_backward_reference(enc, cache, upstream)
        for (ids, grads), (ref_ids, ref_grads) in zip(got, ref):
            assert ids.tobytes() == ref_ids.tobytes()
            assert grads.tobytes() == ref_grads.tobytes()


class TestGraphScatterBytes:
    def test_apply_equals_add_at(self, small_dataset):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        x = np.random.default_rng(40).normal(size=(adj.node_count, 5))
        assert adj.apply(x).tobytes() == apply_reference(adj, x).tobytes()

    def test_apply_across_widths_equals_add_at(self, small_dataset):
        # apply keeps a scatter index per width; switching width must not reuse it
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        rng = np.random.default_rng(43)
        for d in (5, 1, 5):
            x = rng.normal(size=(adj.node_count, d))
            assert adj.apply(x).tobytes() == apply_reference(adj, x).tobytes()

    @pytest.mark.parametrize("name", ["rows", "cols", "weights"])
    def test_edge_arrays_are_read_only(self, small_dataset, name):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        with pytest.raises(ValueError):
            getattr(adj, name)[0] = 1

    def test_batch_backward_equals_add_at(self, small_dataset):
        enc = gcn_encoder(small_dataset, dim=4, seed=41)
        rng = np.random.default_rng(42)
        users = rng.integers(0, small_dataset.n_users, size=12)
        items = rng.integers(0, small_dataset.n_items, size=(12, 5))
        upstream = rng.normal(size=(12, 5))
        _, cache = batch_forward(enc, users, items)
        got = batch_backward(enc, cache, upstream)
        ref = graph_backward_reference(enc, cache, upstream)
        for (ids, grads), (ref_ids, ref_grads) in zip(got, ref):
            np.testing.assert_array_equal(ids, ref_ids)
            assert grads.tobytes() == ref_grads.tobytes()


class TestRepresentations:
    def test_graph_isolated_item_keeps_scaled_layer0(self):
        from advrec.dataio import InteractionSet

        # item 3 never appears in train: its propagated row is layer0 / (L+1)
        ds = InteractionSet(2, 4, np.array([[0, 0], [0, 1], [1, 2]]),
                            np.zeros((0, 2)), np.array([[1, 3]]))
        enc = gcn_encoder(ds, dim=3, seed=16, layers=2)
        _, item_reps = representations(enc)
        np.testing.assert_allclose(item_reps[3], enc.item_table.values[3] / 3.0,
                                   atol=1e-14)
