"""Backbone scoring and backward tests, including the full graph chain."""

from dataclasses import replace
from operator import attrgetter

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
from advrec import encoder, numkit
from advrec.errors import IdOutOfRange
from advrec.numkit import NormAdjacency, Workspace, cosine_score, cosine_score_grad, scatter_index

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

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    @pytest.mark.parametrize("side,bad", [("user", 6), ("user", -1), ("item", 8), ("item", -1)])
    def test_batch_forward_rejects_ids_out_of_range(self, small_dataset, backbone, side, bad):
        # the item rows are gathered in take's clip mode, which would read a clipped row
        enc = (mf_encoder(small_dataset.n_users, small_dataset.n_items) if backbone == "mf"
               else gcn_encoder(small_dataset))
        users, items = np.array([0, 1]), np.array([[0, 1], [2, 3]])
        if side == "user":
            users[1] = bad
        else:
            items[1, 1] = bad
        for ws in (None, Workspace()):
            with pytest.raises(IdOutOfRange):
                batch_forward(enc, users, items, ws=ws)

    def test_graph_adjacency_is_bipartite(self, small_dataset):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        n_users = small_dataset.n_users
        for r, c in zip(adj.rows.tolist(), adj.cols.tolist()):
            assert (r < n_users) != (c < n_users)


@pytest.mark.parametrize("tau", [0.0, -0.5, float("inf"), float("nan")])
def test_encoder_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        mf_encoder(tau=tau)


@pytest.mark.parametrize("layers", [1, 3])
def test_mf_encoder_rejects_graph_layers(layers):
    with pytest.raises(ValueError, match="layers"):
        replace(mf_encoder(), layers=layers)


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


# (node_count, undirected edges) for NormAdjacency.apply's edge cases
EDGE_CASE_GRAPHS = {
    "no_edges": (5, []),
    # nodes 0, 4 and 8 are isolated: the start, middle and end of the id range
    "isolated": (9, [(3, 1), (2, 7), (1, 6), (5, 2), (7, 3), (6, 5)]),
    # hub 5 alone has the largest degree
    "star": (8, [(5, 0), (1, 5), (5, 2), (0, 1), (3, 5), (5, 4), (6, 5)]),
    # every node has degree 2, ids and edge order shuffled
    "ties": (10, [(7, 2), (0, 5), (2, 9), (1, 8), (5, 3), (9, 7), (8, 4), (3, 0),
                  (4, 6), (6, 1)]),
    # 16 distinct degrees from 1 to 22, edges in an order far from sorted
    "random": (30, [(a, b) for a in range(30) for b in range(a + 1, 30)
                    if (a * b + b) % (a % 6 + 2) == 0][::-1]),
}


def apply_reference(adj, x):
    """NormAdjacency.apply as one np.add.at scatter."""
    out = np.zeros_like(x)
    np.add.at(out, adj.rows, adj.weights[:, None] * x[adj.cols])
    return out


def item_gradient_factors(enc, cache, upstream):
    """Per slot of the item block: coef * u, the item gradient's (B, M, d)
    first term, and r, the (B, M) scale of its radial term r * i."""
    up = upstream / enc.tau
    c = cache
    coef_i = up / (c.u_norm[:, None] * c.i_norm)
    return coef_i[..., None] * c.u_rep[:, None, :], up * c.cos / c.i_norm**2


def user_gradient_terms(enc, cache, upstream):
    """The (B, d) user gradient terms, one per row of the block."""
    up = upstream / enc.tau
    c = cache
    coef_i = up / (c.u_norm[:, None] * c.i_norm)
    i_rep = c.item_reps.take(c.items, axis=0)
    return np.einsum("bm,bmd->bd", coef_i, i_rep) \
        - (np.sum(up * c.cos, axis=1) / c.u_norm**2)[:, None] * c.u_rep


def item_sums_reference(enc, cache, upstream, ids, n):
    """(n, d) item gradient sums for the block's item slots mapped to ids in
    [0, n): np.add.at of the coef * u terms, minus each id's np.add.at sum
    of r times its row, taken from the slots that hold it."""
    terms, r = item_gradient_factors(enc, cache, upstream)
    ids = ids.ravel()
    sums = np.zeros((n, enc.dim))
    np.add.at(sums, ids, terms.reshape(-1, enc.dim))
    radial = np.zeros(n)
    np.add.at(radial, ids, r.ravel())
    rows = np.zeros((n, enc.dim))
    rows[ids] = cache.item_reps.take(cache.items, axis=0).reshape(-1, enc.dim)
    return sums - radial[:, None] * rows


def item_sums_per_slot_reference(enc, cache, upstream, ids, n):
    """item_sums_reference with the radial term taken off in every slot,
    before the sum: np.add.at of coef * u - r * i."""
    terms, r = item_gradient_factors(enc, cache, upstream)
    i_rep = cache.item_reps.take(cache.items, axis=0)
    sums = np.zeros((n, enc.dim))
    np.add.at(sums, ids.ravel(), (terms - r[..., None] * i_rep).reshape(-1, enc.dim))
    return sums


def graph_backward_reference(enc, cache, upstream):
    """The graph branch of batch_backward with np.add.at scatters and
    np.add.at propagation."""
    c = cache
    node_grad = np.zeros((enc.n_users + enc.n_items, enc.dim))
    np.add.at(node_grad, c.users, user_gradient_terms(enc, c, upstream))
    node_grad[enc.n_users:] = item_sums_reference(enc, c, upstream, c.items, enc.n_items)
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
    np.add.at."""
    c = cache
    d_u = user_gradient_terms(enc, c, upstream)
    users, user_inverse = np.unique(c.users, return_inverse=True)
    user_sums = np.zeros((len(users), enc.dim))
    np.add.at(user_sums, user_inverse, d_u)
    items, item_inverse = np.unique(c.items, return_inverse=True)
    return ((users, user_sums),
            (items, item_sums_reference(enc, c, upstream, item_inverse, len(items))))


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
        i_rep = cache.item_reps.take(cache.items, axis=0)
        assert cache.i_norm.tobytes() == np.linalg.norm(i_rep, axis=-1).tobytes()

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

    def test_mf_item_gradient_equals_scatter_index(self):
        """The MF backward sums item rows over the forward's item compaction."""
        enc = mf_encoder(n_users=8, n_items=40, dim=3, seed=33)
        rng = np.random.default_rng(33)
        users, items = rng.integers(0, 8, size=8), rng.integers(0, 30, size=(8, 6))
        upstream = rng.normal(size=(8, 6))
        _, cache = batch_forward(enc, users, items)
        _, (ids, grads) = batch_backward(enc, cache, upstream)
        terms, r = item_gradient_factors(enc, cache, upstream)
        index = scatter_index(items, enc.n_items)
        want_ids, want = index.scatter(terms)
        radial = np.zeros(len(want_ids))
        np.add.at(radial, index.inverse.ravel(), r.ravel())
        want -= radial[:, None] * enc.item_table.values[want_ids]
        assert ids.tobytes() == want_ids.tobytes()
        assert grads.tobytes() == want.tobytes()


class TestRadialTermOncePerItem:
    """The backward takes each item's radial term off its sum once, not in
    every slot; the per-slot formula is the oracle. The two round apart:
    they agree to 1e-12 of the largest term an item sums, per slot it holds."""

    @staticmethod
    def spread_batch(enc, seed):
        """(users, items, upstream) on enc, whose table rows it scales by
        1e-5..1e100 (a norm at most 1e-12 raises ZeroNormError): item 0 sits
        in one slot of every row, rows repeat items, and the upstream holds
        +0.0 and -0.0 and spans 1e-100..1e100."""
        rng = np.random.default_rng(seed)
        for table in (enc.user_table, enc.item_table):
            table.values *= 10.0 ** rng.uniform(-5, 100, size=(table.rows, 1))
        users = rng.integers(0, enc.n_users, size=12)
        items = rng.integers(1, enc.n_items, size=(12, 6))
        items[:4, 5] = items[:4, 0]
        items[np.arange(12), rng.integers(0, 6, size=12)] = 0
        upstream = rng.normal(size=items.shape) * 10.0 ** rng.uniform(-100, 100, items.shape)
        upstream[rng.random(items.shape) < 0.2] = 0.0
        upstream[rng.random(items.shape) < 0.2] = -0.0
        return users, items, upstream

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_item_sums_agree_with_the_per_slot_formula(self, small_dataset, monkeypatch,
                                                       backbone, seed):
        enc = (mf_encoder(small_dataset.n_users, small_dataset.n_items, dim=4, seed=seed)
               if backbone == "mf" else gcn_encoder(small_dataset, dim=4, seed=seed))
        users, items, upstream = self.spread_batch(enc, seed)
        node_grads, real = [], encoder.propagate_backward

        def record(grad, *args):  # the graph's item sums, before the propagation's backward
            node_grads.append(grad)
            return real(grad, *args)

        monkeypatch.setattr(encoder, "propagate_backward", record)
        _, cache = batch_forward(enc, users, items)
        _, (ids, grads) = batch_backward(enc, cache, upstream)
        if backbone == "mf":
            got = np.zeros((enc.n_items, enc.dim))
            got[ids] = grads
        else:
            [node_grad] = node_grads
            got = node_grad[enc.n_users:]
        want = item_sums_per_slot_reference(enc, cache, upstream, items, enc.n_items)
        terms, r = item_gradient_factors(enc, cache, upstream)
        i_rep = cache.item_reps.take(cache.items, axis=0)
        largest = np.zeros(enc.n_items)
        np.maximum.at(largest, items.ravel(), np.maximum(
            np.abs(terms), np.abs(r[..., None] * i_rep)).max(axis=-1).ravel())
        bound = 1e-12 * largest * np.bincount(items.ravel(), minlength=enc.n_items)
        assert largest[0] > 0 and np.ptp(np.log10(largest[largest > 0])) > 10
        assert np.all(np.abs(got - want) <= bound[:, None])
        assert not np.any(got[bound == 0])  # items outside the block


def signed_zero_batch(n_users, n_items, seed):
    """(users, items, upstream) whose upstream holds exact +0.0 and -0.0
    entries, and whose item 2 sits in six slots, each with a zero upstream
    entry, so that all its gradient terms are zeros."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, size=8)
    items = rng.integers(3, n_items, size=(8, 5))
    items[[0, 0, 3, 5, 5, 7], [1, 4, 0, 2, 3, 4]] = 2
    upstream = rng.normal(size=(8, 5))
    upstream[rng.random((8, 5)) < 0.3] = 0.0
    upstream[rng.random((8, 5)) < 0.3] = -0.0
    upstream[items == 2] = [0.0, -0.0, -0.0, 0.0, -0.0, 0.0]
    return users, items, upstream


class TestSignedZeros:
    """The backward's item sums add products that may be -0.0 (a zero
    upstream times a negative user entry); the plan sums start at +0.0, so
    they return the reference's bytes and no -0.0."""

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_backward_with_a_workspace_equals_add_at(self, small_dataset, backbone):
        enc = (mf_encoder(small_dataset.n_users, small_dataset.n_items, dim=4, seed=51)
               if backbone == "mf" else gcn_encoder(small_dataset, dim=4, seed=51))
        users, items, upstream = signed_zero_batch(enc.n_users, enc.n_items, seed=52)
        _, kept = batch_forward(enc, users, items)
        coef_i = upstream / enc.tau / (kept.u_norm[:, None] * kept.i_norm)
        products = coef_i[..., None] * kept.u_rep[:, None, :]
        assert np.any((products == 0.0) & np.signbit(products))  # the multiply's -0.0
        reference = mf_backward_reference if backbone == "mf" else graph_backward_reference
        want = reference(enc, kept, upstream)
        _, cache = batch_forward(enc, users, items, ws=Workspace())
        got = batch_backward(enc, cache, upstream)
        for (ids, grads), (want_ids, want_grads) in zip(got, want):
            assert ids.tobytes() == want_ids.tobytes()
            assert grads.tobytes() == want_grads.tobytes()
            assert not np.any(np.signbit(grads) & (grads == 0.0))
        if backbone == "mf":
            i_ids, i_grads = got[1]
            assert i_grads[i_ids == 2].tobytes() == np.zeros((1, enc.dim)).tobytes()


class TestGraphScatterBytes:
    def test_apply_equals_add_at(self, small_dataset):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        x = np.random.default_rng(40).normal(size=(adj.node_count, 5))
        assert adj.apply(x).tobytes() == apply_reference(adj, x).tobytes()

    def test_apply_across_widths_equals_add_at(self, small_dataset):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        rng = np.random.default_rng(43)
        for d in (5, 1, 5):
            x = rng.normal(size=(adj.node_count, d))
            assert adj.apply(x).tobytes() == apply_reference(adj, x).tobytes()

    def test_encoder_graph_at_any_width_equals_add_at(self, small_dataset):
        # the graph does not depend on the width: the encoder's dim is 4
        adj = gcn_encoder(small_dataset, dim=4).adj
        rng = np.random.default_rng(44)
        for d in (4, 3, 1, 4):
            x = rng.normal(size=(adj.node_count, d))
            assert adj.apply(x).tobytes() == apply_reference(adj, x).tobytes()

    @pytest.mark.parametrize("name", ["rows", "cols", "weights", "step_cols", "step_weights",
                                      pytest.param("plan.slot", id="slot"),
                                      pytest.param("plan.offsets", id="step_offsets")])
    def test_edge_arrays_are_read_only(self, small_dataset, name):
        adj = build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                   small_dataset.train_pairs)
        with pytest.raises(ValueError):
            attrgetter(name)(adj)[0] = 1

    @pytest.mark.parametrize("d", [1, 3, 32])
    @pytest.mark.parametrize("graph", sorted(EDGE_CASE_GRAPHS))
    def test_edge_case_graphs_equal_add_at(self, graph, d):
        adj = NormAdjacency.from_undirected_edges(*EDGE_CASE_GRAPHS[graph])
        rng = np.random.default_rng(48)
        x = rng.normal(size=(adj.node_count, d))
        x[rng.random(x.shape) < 0.25] = -0.0
        before = x.tobytes()
        got = adj.apply(x)
        assert x.tobytes() == before
        assert got.shape == x.shape and got.tobytes() == apply_reference(adj, x).tobytes()
        assert not np.signbit(got[np.bincount(adj.rows, minlength=adj.node_count) == 0]).any()

    @pytest.mark.parametrize("graph", sorted(EDGE_CASE_GRAPHS))
    def test_negative_zero_terms_sum_to_positive_zero(self, graph):
        adj = NormAdjacency.from_undirected_edges(*EDGE_CASE_GRAPHS[graph])
        x = np.full((adj.node_count, 2), -0.0)
        got = adj.apply(x)
        assert got.tobytes() == apply_reference(adj, x).tobytes()
        assert not np.signbit(got).any()

    def test_strided_and_integer_inputs(self):
        adj = NormAdjacency.from_undirected_edges(*EDGE_CASE_GRAPHS["random"])
        rng = np.random.default_rng(49)
        wide = rng.normal(size=(adj.node_count, 6))
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        assert adj.apply(strided).tobytes() == apply_reference(adj, strided).tobytes()
        ints = rng.integers(-5, 6, size=(adj.node_count, 3))
        before = ints.tobytes()
        got = adj.apply(ints)
        assert ints.tobytes() == before and got.dtype == np.float64
        assert got.tobytes() == apply_reference(adj, ints.astype(float)).tobytes()

    @pytest.mark.parametrize("cells", [1, 8])
    def test_apply_in_small_chunks_equals_add_at(self, monkeypatch, small_dataset, cells):
        monkeypatch.setattr(numkit, "CHUNK_CELLS", cells)
        graphs = [NormAdjacency.from_undirected_edges(*graph) for graph in EDGE_CASE_GRAPHS.values()]
        graphs.append(build_norm_adjacency(small_dataset.n_users, small_dataset.n_items,
                                           small_dataset.train_pairs))
        rng = np.random.default_rng(50)
        for adj in graphs:
            for d in (1, 3, 32):
                x = rng.choice([-1.0, 1.0], size=(adj.node_count, d)) \
                    * 10.0 ** rng.uniform(-300, 300, size=(adj.node_count, d))
                x[rng.random(x.shape) < 0.25] = -0.0
                assert adj.apply(x).tobytes() == apply_reference(adj, x).tobytes()

    def test_step_layout(self):
        adj = NormAdjacency.from_undirected_edges(*EDGE_CASE_GRAPHS["star"])
        # degree order 5 (6 edges), 0 and 1 (2, tied), 2, 3, 4, 6 (1), 7 (0)
        assert adj.plan.slot.tolist() == [1, 2, 3, 4, 5, 0, 6, 7]
        assert adj.plan.offsets.tolist() == [0, 7, 10, 11, 12, 13, 14]
        # step k: the k-th edge, in input order, of each node in degree order
        step_rows = np.array([5, 0, 1, 2, 3, 4, 6, 5, 0, 1, 5, 5, 5, 5])
        step_cols = np.array([0, 1, 5, 5, 5, 5, 5, 2, 5, 0, 4, 1, 3, 6])
        deg = np.bincount(adj.rows, minlength=adj.node_count).astype(np.float64)
        assert adj.step_cols.tolist() == step_cols.tolist()
        assert adj.step_weights.tobytes() == (
            1.0 / np.sqrt(deg[step_rows] * deg[step_cols])).tobytes()

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
