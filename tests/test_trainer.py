"""Min-max loop tests: freeze contracts, descent/ascent, schedule, replay."""

import json
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from advrec import loss, numkit, trainer
from advrec.dataio import InteractionSet, SyntheticSpec, generate_synthetic, sample_negatives
from advrec.encoder import batch_backward, batch_forward, representations, score
from advrec.errors import (NonFinite, NonFiniteGradient, NoNegativesError, SkippedAdvStep,
                           ZeroNormError)
from advrec.loss import MlpHardness
from advrec.numkit import EmbeddingTable, Workspace, scatter_index
from advrec.rng import substream
from advrec.trainer import (
    Batch,
    TrainConfig,
    adv_step,
    build_hardness,
    hardness_divergence,
    init_state,
    iter_batches,
    mean_batch_loss,
    min_step,
    run_training,
    train_epoch,
)

from conftest import tiny_dataset


def small_cfg(**overrides):
    base = dict(lr=1e-2, lr_adv=1e-3, batch_size=16, n_negatives=4, k_weight=4.0,
                tau=0.5, e_adv_max=2, t_adv_interval=2, max_epochs=6, eval_every=1,
                patience=20, hardness_strategy="adv", seed=0, backbone="mf",
                embed_dim=4, k_eval=5)
    base.update(overrides)
    return TrainConfig(**base)


def first_batch(dataset, cfg, epoch=1):
    return next(iter_batches(dataset, cfg, epoch, "min"))


def encoder_bytes(state):
    return (state.encoder.user_table.values.tobytes()
            + state.encoder.item_table.values.tobytes())


def model_bytes(encoder, hardness):
    """Parameter bytes of an (encoder, hardness) pair, such as a best snapshot."""
    arrays = [encoder.user_table.values, encoder.item_table.values]
    if hardness is not None:
        arrays += [arr for _, arr in sorted(hardness.param_arrays().items())]
    return b"".join(arr.tobytes() for arr in arrays)


def hardness_bytes(state):
    if state.hardness is None:
        return b""
    return b"".join(arr.tobytes() for _, arr in sorted(state.hardness.param_arrays().items()))


def same_arrays(got, want):
    """Whether two sequences of arrays (or Nones) hold the same bytes."""
    return all((g is None) == (w is None)
               and (g is None or (g.shape == w.shape and g.tobytes() == w.tobytes()))
               for g, w in zip(got, want, strict=True))


def plain(batch):
    """The batch without a frozen half."""
    return Batch(batch.users, batch.pos_items, batch.negatives)


def trained_state(dataset, cfg):
    """init_state with its hardness, if any, moved off the uniform start."""
    state = init_state(dataset, cfg)
    if state.hardness is not None:
        for batch in iter_batches(dataset, cfg, 9, "adv"):
            adv_step(state, batch)
    return state


class TestMinStep:
    def test_zero_hardness_strategy_matches_plain_step_bitwise(self, small_dataset):
        cfg_adv = small_cfg(hardness_strategy="adv")
        cfg_none = small_cfg(hardness_strategy="none")
        s1 = init_state(small_dataset, cfg_adv)
        s2 = init_state(small_dataset, cfg_none)
        batch = first_batch(small_dataset, cfg_adv)
        loss1 = min_step(s1, batch)
        loss2 = min_step(s2, batch)
        assert loss1 == loss2
        assert encoder_bytes(s1) == encoder_bytes(s2)

    def test_descent_at_small_learning_rate(self, small_dataset):
        wins = 0
        for trial in range(100):
            cfg = small_cfg(lr=1e-4, seed=trial)
            state = init_state(small_dataset, cfg)
            batch = first_batch(small_dataset, cfg)
            before = mean_batch_loss(state, [batch])
            min_step(state, batch)
            after = mean_batch_loss(state, [batch])
            wins += after <= before
        assert wins >= 95

    def test_hardness_frozen_during_min_step(self, small_dataset):
        cfg = small_cfg()
        state = init_state(small_dataset, cfg)
        before = hardness_bytes(state)
        min_step(state, first_batch(small_dataset, cfg))
        assert hardness_bytes(state) == before

    def test_rand_strategy_needs_rng_and_is_deterministic(self, small_dataset):
        # the random deltas come with the batch; a hand-built batch has none
        cfg = small_cfg(hardness_strategy="rand")
        s1 = init_state(small_dataset, cfg)
        s2 = init_state(small_dataset, cfg)
        batch = first_batch(small_dataset, cfg)
        l1 = min_step(s1, batch)
        l2 = min_step(s2, batch)
        assert l1 == l2
        assert encoder_bytes(s1) == encoder_bytes(s2)
        state = init_state(small_dataset, cfg)
        with pytest.raises(ValueError, match="carries its deltas"):
            min_step(state, plain(batch))
        assert encoder_bytes(state) == encoder_bytes(init_state(small_dataset, cfg))


class TestAdvStep:
    def test_encoder_frozen_during_adv_step(self, small_dataset):
        cfg = small_cfg()
        state = init_state(small_dataset, cfg)
        before = encoder_bytes(state)
        adv_step(state, first_batch(small_dataset, cfg))
        assert encoder_bytes(state) == before

    def test_ascent_at_small_learning_rate(self, small_dataset):
        wins = 0
        for trial in range(100):
            cfg = small_cfg(lr_adv=1e-5, seed=trial)
            state = init_state(small_dataset, cfg)
            # move hardness off the uniform start so gradients are generic
            for _ in range(3):
                adv_step(state, first_batch(small_dataset, cfg, epoch=7 + trial))
            batch = first_batch(small_dataset, cfg)
            before = mean_batch_loss(state, [batch])
            adv_step(state, batch)
            after = mean_batch_loss(state, [batch])
            wins += after >= before
        assert wins >= 95

    def test_reverse_is_negated_first_step(self, small_dataset):
        cfg_adv = small_cfg(hardness_strategy="adv")
        cfg_rev = small_cfg(hardness_strategy="reverse")
        s_adv = init_state(small_dataset, cfg_adv)
        s_rev = init_state(small_dataset, cfg_rev)
        base_user = s_adv.hardness.user_table.values.copy()
        base_item = s_adv.hardness.item_table.values.copy()
        batch = first_batch(small_dataset, cfg_adv)
        adv_step(s_adv, batch)
        adv_step(s_rev, batch)
        d_adv_u = s_adv.hardness.user_table.values - base_user
        d_rev_u = s_rev.hardness.user_table.values - base_user
        np.testing.assert_array_equal(d_rev_u, -d_adv_u)
        d_adv_i = s_adv.hardness.item_table.values - base_item
        d_rev_i = s_rev.hardness.item_table.values - base_item
        np.testing.assert_array_equal(d_rev_i, -d_adv_i)

    def test_budget_exhaustion_signals(self, small_dataset):
        cfg = small_cfg(e_adv_max=1)
        state = init_state(small_dataset, cfg)
        state.e_adv = 1
        with pytest.raises(SkippedAdvStep):
            adv_step(state, first_batch(small_dataset, cfg))

    def test_no_hardness_strategy_signals(self, small_dataset):
        cfg = small_cfg(hardness_strategy="none")
        state = init_state(small_dataset, cfg)
        with pytest.raises(SkippedAdvStep):
            adv_step(state, first_batch(small_dataset, cfg))

    @pytest.mark.parametrize("kind", ["embed", "mlp"])
    def test_graph_precomputed_reps_match_per_batch_propagation(self, small_dataset, kind):
        cfg = small_cfg(backbone="lightgcn", hardness_kind=kind)
        batches = list(iter_batches(small_dataset, cfg, 1, "adv"))
        s1 = init_state(small_dataset, cfg)
        s2 = init_state(small_dataset, cfg)
        with_scores = trainer._adv_half(s2, representations(s2.encoder))
        for batch in batches:
            adv_step(s1, batch)
            adv_step(s2, with_scores(batch))
        assert hardness_bytes(s1) == hardness_bytes(s2) != hardness_bytes(
            init_state(small_dataset, cfg))

    @pytest.mark.parametrize("kind", ["embed", "mlp"])
    def test_each_hardness_block_is_gathered_once(self, small_dataset, monkeypatch, kind):
        # mlp: grad_batch reads the forward's cache instead of gathering again.
        # embed: no block is kept; the forward and grad_batch each gather every
        # negative's row once, in chunks of at most CHUNK_CELLS cells
        cfg = small_cfg(batch_size=5, hardness_kind=kind)
        state = trained_state(small_dataset, cfg)
        if kind == "embed":
            class Table(np.ndarray):
                def take(self, ids, *args, **kwargs):
                    if np.ndim(ids) == 2:  # block rows; Adam takes 1-D rows
                        chunks.append(np.size(ids))
                    return super().take(ids, *args, **kwargs)

            monkeypatch.setattr(numkit, "CHUNK_CELLS", 32)  # 2 rows of 4 negatives, h = 4
            table = state.hardness.item_table
            table.values = table.values.view(Table)
            frozen = trainer._adv_half(state, representations(state.encoder))
            for batch in iter_batches(small_dataset, cfg, 2, "adv", frozen):
                chunks = []
                adv_step(state, batch)
                assert sum(chunks) == 2 * batch.negatives.size
                assert len(chunks) == 2 * -(-len(batch.users) // 2)
                assert max(chunks) * cfg.embed_dim <= numkit.CHUNK_CELLS
            return
        owner = state.hardness if kind == "embed" else state.encoder
        tables = [owner.user_table.values, owner.item_table.values]
        real, gathered = loss.take_rows, []

        def record(table, ids, *args):
            gathered.append(next(k for k, t in enumerate(tables) if t is table))
            return real(table, ids, *args)

        monkeypatch.setattr(loss, "take_rows", record)
        frozen = trainer._adv_half(state, representations(state.encoder))
        for batch in iter_batches(small_dataset, cfg, 2, "adv", frozen):
            gathered.clear()
            adv_step(state, batch)
            assert gathered == [0, 1]  # the users' rows, then the negatives' block

    def test_a_min_pass_half_is_ignored(self, small_dataset):
        # a min pass's batch carries (probs, deltas) but no forward cache, so
        # the step runs its own forward; the half here is stale (uniform)
        cfg = small_cfg(batch_size=3)
        half = trainer._min_half(init_state(small_dataset, cfg))
        carried, fresh = trained_state(small_dataset, cfg), trained_state(small_dataset, cfg)
        for batch in iter_batches(small_dataset, cfg, 2, "min", half):
            assert batch.hardness is not None
            loss_value = adv_step(carried, batch)
            assert loss_value == adv_step(fresh, replace(batch, hardness=None))
        assert hardness_bytes(carried) == hardness_bytes(fresh)


class TestRunTraining:
    def test_adversarial_schedule(self, small_dataset):
        cfg = small_cfg(t_adv_interval=5, e_adv_max=3, max_epochs=30,
                        eval_every=1, patience=100)
        result = run_training(small_dataset, cfg)
        seen = {rec["epoch"]: rec["e_adv"] for rec in result.history}
        for epoch, e_adv in seen.items():
            expected = min(epoch // 5, 3)
            assert e_adv == expected, f"epoch {epoch}: {e_adv} != {expected}"

    def test_e_adv_never_exceeds_budget(self, small_dataset):
        cfg = small_cfg(t_adv_interval=1, e_adv_max=2, max_epochs=10, patience=50)
        result = run_training(small_dataset, cfg)
        assert all(rec["e_adv"] <= 2 for rec in result.history)
        assert result.state.e_adv == 2

    def test_early_stop_arithmetic(self, small_dataset):
        # metric is frozen by a vanishing learning rate -> first eval is best
        cfg = small_cfg(lr=1e-300, lr_adv=1e-300, patience=4, max_epochs=50,
                        eval_every=1, hardness_strategy="none")
        result = run_training(small_dataset, cfg)
        assert result.state.best_epoch == 1
        assert result.state.epoch == result.state.best_epoch + cfg.patience

    def test_zero_adv_budget_matches_plain_training(self, small_dataset):
        cfg_adv = small_cfg(e_adv_max=0, hardness_strategy="adv", max_epochs=4)
        cfg_none = small_cfg(e_adv_max=0, hardness_strategy="none", max_epochs=4)
        r1 = run_training(small_dataset, cfg_adv)
        r2 = run_training(small_dataset, cfg_none)
        assert json.dumps(r1.history, sort_keys=True) == json.dumps(r2.history, sort_keys=True)

    def test_deterministic_replay(self, small_dataset):
        cfg = small_cfg(max_epochs=5)
        r1 = run_training(small_dataset, cfg)
        r2 = run_training(small_dataset, cfg)
        assert json.dumps(r1.history, sort_keys=True) == json.dumps(r2.history, sort_keys=True)
        assert r1.state.encoder.user_table.values.tobytes() \
            == r2.state.encoder.user_table.values.tobytes()

    def test_best_metric_non_decreasing_in_history(self, small_dataset):
        cfg = small_cfg(max_epochs=8)
        result = run_training(small_dataset, cfg)
        best_so_far = -1.0
        key = f"recall@{cfg.k_eval}"
        for rec in result.history:
            best_so_far = max(best_so_far, rec[key])
        assert result.state.best_metric == best_so_far

    def test_kl_does_not_decrease_over_adversarial_epoch(self, small_dataset):
        cfg = small_cfg(t_adv_interval=1, e_adv_max=5, lr_adv=1e-3, max_epochs=1)
        state = init_state(small_dataset, cfg)
        kl_before, _ = hardness_divergence(state, small_dataset, epoch=0)
        for batch in iter_batches(small_dataset, cfg, 1, "adv"):
            adv_step(state, batch)
        kl_after, _ = hardness_divergence(state, small_dataset, epoch=0)
        assert kl_after >= kl_before - 1e-6

    def test_divergence_diagnostics_start_at_zero(self, small_dataset):
        cfg = small_cfg()
        state = init_state(small_dataset, cfg)
        kl, eps = hardness_divergence(state, small_dataset, epoch=0)
        assert kl == 0.0
        assert eps == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("hardness_kind", ["embed", "mlp"])
    def test_divergence_is_one_sample_and_score(self, hardness_kind):
        # the anchors, one sample_negatives call and one hardness call on one rng
        dataset = tiny_dataset(n_users=120, n_items=30, seed=3)  # more than 256 train pairs
        cfg = small_cfg(hardness_kind=hardness_kind, n_negatives=6, max_epochs=2,
                        t_adv_interval=1)
        state = init_state(dataset, cfg)
        train_epoch(state, dataset)  # so that the hardness is no longer uniform
        rng = substream(cfg.seed, "diag", 7)
        train = dataset.train_pairs
        assert len(train) > 256
        anchors = train[rng.integers(0, len(train), size=256)]
        negs = sample_negatives(dataset, anchors[:, 0], cfg.n_negatives, rng).negatives
        probs, deltas, _ = state.hardness.forward(anchors[:, 0], negs, state.encoder)
        expected = (float(np.mean(-deltas.mean(axis=1))),
                    float(np.max(np.abs(probs - 1.0 / cfg.n_negatives))))
        assert expected[0] > 0.0
        assert hardness_divergence(state, dataset, epoch=7) == expected

    def test_divergence_of_an_empty_train_split_raises(self, small_dataset):
        state = init_state(small_dataset, small_cfg())
        empty = InteractionSet(small_dataset.n_users, small_dataset.n_items,
                               np.zeros((0, 2), dtype=np.int64), small_dataset.valid_pairs,
                               small_dataset.test_pairs)
        with pytest.raises(ValueError):
            hardness_divergence(state, empty, epoch=0)


class TestTrainEpoch:
    @pytest.mark.parametrize("backbone,hardness_kind", [("mf", "embed"), ("lightgcn", "mlp")])
    def test_epochs_replay_run_training(self, small_dataset, backbone, hardness_kind):
        # five epochs: adversarial passes and evaluations after epochs 2 and 4
        cfg = small_cfg(backbone=backbone, hardness_kind=hardness_kind, max_epochs=5,
                        eval_every=2)
        state = init_state(small_dataset, cfg)
        records = [train_epoch(state, small_dataset) for _ in range(cfg.max_epochs)]
        result = run_training(small_dataset, cfg)
        assert [r is not None for r in records] == [False, True, False, True, False]
        assert json.dumps(state.history, sort_keys=True) \
            == json.dumps(result.history, sort_keys=True) \
            == json.dumps([r for r in records if r is not None], sort_keys=True)
        assert model_bytes(state.encoder, state.hardness) \
            == model_bytes(result.state.encoder, result.state.hardness)
        assert model_bytes(*state.best) == model_bytes(*result.state.best)
        assert state.e_adv == result.state.e_adv == 2


    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_small_sum_chunks_give_the_same_run(self, small_dataset, monkeypatch, backbone):
        # every plan sum split into groups of at most 8 cells, most steps alone
        cfg = small_cfg(backbone=backbone, hardness_kind="embed", max_epochs=2,
                        t_adv_interval=1)
        want = run_training(small_dataset, cfg)
        monkeypatch.setattr(numkit, "CHUNK_CELLS", 8)
        got = run_training(small_dataset, cfg)
        assert got.state.e_adv == want.state.e_adv == 2
        assert model_bytes(got.state.encoder, got.state.hardness) \
            == model_bytes(want.state.encoder, want.state.hardness)
        assert json.dumps(got.history) == json.dumps(want.history)


STRATEGY_KINDS = [(s, k) for s in trainer.STRATEGIES for k in ("embed", "mlp")]


class TestFrozenHalf:
    """iter_batches' worker computes each pass's frozen half, and
    _batch_loss gives the same bytes with it as on the same batch without
    it."""

    @pytest.mark.parametrize("strategy,kind", STRATEGY_KINDS)
    def test_min_pass(self, small_dataset, strategy, kind):
        cfg = small_cfg(batch_size=3, hardness_strategy=strategy, hardness_kind=kind)
        state = trained_state(small_dataset, cfg)
        half = trainer._min_half(state)
        # only the hardness tables are frozen; MLP hardness reads the encoder
        assert (half is None) == (state.hardness is not None and kind == "mlp")
        for batch, unfrozen in zip(iter_batches(small_dataset, cfg, 2, "min", half),
                                   iter_batches(small_dataset, cfg, 2, "min"), strict=True):
            assert batch.scores is None
            assert (batch.hardness is None) == (half is None)
            got = trainer._batch_loss(state, batch)
            want = trainer._batch_loss(state, unfrozen)
            assert same_arrays(got[:5], want[:5])
            # batch b + 1's half was prepared before this step wrote the encoder
            min_step(state, batch)

    @pytest.mark.parametrize("strategy,kind", STRATEGY_KINDS)
    def test_adversarial_pass(self, small_dataset, strategy, kind):
        cfg = small_cfg(batch_size=3, hardness_strategy=strategy, hardness_kind=kind)
        state = trained_state(small_dataset, cfg)
        half = trainer._adv_half(state, representations(state.encoder))
        for batch, unfrozen in zip(iter_batches(small_dataset, cfg, 2, "adv", half),
                                   iter_batches(small_dataset, cfg, 2, "adv"), strict=True):
            assert batch.hardness is None and batch.scores is not None
            got = trainer._batch_loss(state, batch)
            want = trainer._batch_loss(state, unfrozen)
            assert got[5] is None and same_arrays(got[:5], want[:5])
            if state.hardness is not None:
                adv_step(state, batch)

    @pytest.mark.parametrize("with_frozen", [False, True])
    def test_rand_batches_carry_their_deltas(self, small_dataset, with_frozen):
        # each batch carries its key (epoch, b); the min pass's frozen half
        # attaches the deltas drawn under it, and a step draws the same
        cfg = small_cfg(batch_size=3, hardness_strategy="rand", seed=4)
        state = init_state(small_dataset, cfg)
        frozen = trainer._min_half(state) if with_frozen else None
        batches = list(iter_batches(small_dataset, cfg, 3, "min", frozen))
        assert len(batches) == 6
        for b, batch in enumerate(batches):
            want = substream(4, "rand-delta", 3, b).uniform(-0.5, 0.5, (len(batch.users), 4))
            assert batch.key == (3, b)
            assert (batch.hardness is not None) == with_frozen
            probs, deltas = batch.hardness or trainer._batch_deltas(state, batch)[:2]
            assert probs is None and same_arrays([deltas], [want])

    @pytest.mark.parametrize("strategy,kind", STRATEGY_KINDS)
    def test_where_deltas_are_computed(self, small_dataset, monkeypatch, strategy, kind):
        # a min pass's deltas are computed on the worker, except for the
        # pass's first batch, prepared in the calling thread; MLP hardness
        # reads the encoder tables that min steps write, so its deltas, like
        # every adversarial step's, are computed on the main thread
        real, threads = trainer._batch_deltas, []

        def record(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(trainer, "_batch_deltas", record)
        real_forward, forwards = MlpHardness.forward, []

        def record_forward(self, *args):
            forwards.append(threading.current_thread())
            return real_forward(self, *args)

        monkeypatch.setattr(MlpHardness, "forward", record_forward)
        cfg = small_cfg(batch_size=3, hardness_strategy=strategy, hardness_kind=kind,
                        t_adv_interval=1)
        state = init_state(small_dataset, cfg)
        assert train_epoch(state, small_dataset) is not None
        trains = strategy in trainer.HARDNESS_STRATEGIES
        on_main = [t is threading.main_thread() for t in threads]
        # 6 min steps, then 6 adversarial steps where a hardness model trains
        min_pass = [True] * 6 if trains and kind == "mlp" else [True] + [False] * 5
        assert on_main == min_pass + ([True] * 6 if trains else [])
        # MLP: the 12 steps' forwards and the divergence diagnostic's
        assert len(forwards) == (13 if trains and kind == "mlp" else 0)
        assert all(t is threading.main_thread() for t in forwards)


def same_index(got, want):
    """Whether two (users, items) scatter index pairs hold the same arrays."""
    def arrays(index):
        return [index.unique, index.inverse, index.plan.slot, index.plan.order, index.plan.offsets]
    return all(same_arrays(arrays(g), arrays(w)) for g, w in zip(got, want, strict=True))


INDEX_CASES = [("mf", "adv", "embed"), ("mf", "reverse", "mlp"), ("lightgcn", "adv", "embed")]


class TestScatterIndex:
    """iter_batches' worker builds each batch's scatter index, and a step
    gives the same bytes with it as with one built in place."""

    def test_worker_index_equals_scatter_index_of_the_batch(self, small_dataset):
        # an adversarial batch carries its hardness model's index: none for MLP
        n_users, n_items = small_dataset.n_users, small_dataset.n_items
        for kind in ("embed", "mlp"):
            cfg = small_cfg(batch_size=3, hardness_kind=kind)
            for batch in iter_batches(small_dataset, cfg, 2, "min"):
                block = np.concatenate([batch.pos_items[:, None], batch.negatives], axis=1)
                assert batch.hardness_index is None
                assert same_index(batch.score_index, (scatter_index(batch.users, n_users),
                                                      scatter_index(block, n_items)))
            for batch in iter_batches(small_dataset, cfg, 2, "adv"):
                assert batch.score_index is None
                if kind == "mlp":
                    assert batch.hardness_index is None
                    continue
                assert same_index(batch.hardness_index,
                                  (scatter_index(batch.users, n_users),
                                   scatter_index(batch.negatives, n_items)))

    @pytest.mark.parametrize("backbone,strategy,kind", INDEX_CASES)
    def test_min_step_bytes_without_a_carried_index(self, small_dataset, backbone, strategy, kind):
        cfg = small_cfg(batch_size=3, backbone=backbone, hardness_strategy=strategy,
                        hardness_kind=kind)
        carried, built = trained_state(small_dataset, cfg), trained_state(small_dataset, cfg)
        for batch in iter_batches(small_dataset, cfg, 2, "min", trainer._min_half(carried)):
            assert batch.score_index is not None
            loss = min_step(carried, batch)
            assert loss == min_step(built, replace(batch, score_index=None, hardness=None))
            assert model_bytes(carried.encoder, carried.hardness) \
                == model_bytes(built.encoder, built.hardness)

    @pytest.mark.parametrize("backbone,strategy,kind", INDEX_CASES)
    def test_adv_step_bytes_without_a_carried_index(self, small_dataset, backbone, strategy, kind):
        cfg = small_cfg(batch_size=3, backbone=backbone, hardness_strategy=strategy,
                        hardness_kind=kind)
        carried, built = trained_state(small_dataset, cfg), trained_state(small_dataset, cfg)
        frozen = trainer._adv_half(carried, representations(carried.encoder))
        for batch in iter_batches(small_dataset, cfg, 2, "adv", frozen):
            assert (batch.hardness_index is None) == (kind == "mlp")
            loss = adv_step(carried, batch)
            assert loss == adv_step(built, replace(batch, hardness_index=None, scores=None))
            assert model_bytes(carried.encoder, carried.hardness) \
                == model_bytes(built.encoder, built.hardness)

    def test_plans_are_built_on_the_worker(self, small_dataset, monkeypatch):
        real, threads = numkit.segment_plan, []

        def record(*args):
            threads.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(numkit, "segment_plan", record)
        cfg = small_cfg(batch_size=3, t_adv_interval=1)
        state = init_state(small_dataset, cfg)
        assert train_epoch(state, small_dataset) is not None
        # a min batch plans its users and block, an adversarial batch its
        # users and negatives; its frozen scores plan nothing. Only the first
        # batch of each pass is prepared on the main thread, and no step
        # plans anything.
        on_main = [t is threading.main_thread() for t in threads]
        assert on_main == [True] * 2 + [False] * 10 + [True] * 2 + [False] * 10

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_forward_passes_build_no_plan(self, small_dataset, monkeypatch, backbone):
        """score, mean_batch_loss and the adversarial pass's frozen scores
        only read scores, so they take the items' compaction, not a plan."""
        cfg = small_cfg(batch_size=3, backbone=backbone)
        state = trained_state(small_dataset, cfg)
        batches = [plain(batch) for batch in iter_batches(small_dataset, cfg, 1, "min")]
        plans = []
        monkeypatch.setattr(numkit, "segment_plan", lambda *args: plans.append(args))
        score(state.encoder, 0, np.arange(small_dataset.n_items))
        mean_batch_loss(state, batches)
        frozen = trainer._adv_half(state, representations(state.encoder))
        assert all(frozen(batch).scores is not None for batch in batches)
        assert plans == []


class TestBatchPrefetch:
    """iter_batches draws batch b + 1 on one worker thread during step b."""

    def test_worker_error_surfaces_at_its_batch(self, small_dataset, monkeypatch):
        cfg = small_cfg(batch_size=3)  # 16 train pairs: 6 batches
        want = list(iter_batches(small_dataset, cfg, 1, "min"))
        real, threads = trainer.sample_negatives, []

        def fail_on_call_4(*args):
            threads.append(threading.current_thread())
            if len(threads) == 4:
                raise NoNegativesError("call 4")
            return real(*args)

        monkeypatch.setattr(trainer, "sample_negatives", fail_on_call_4)
        before, got = threading.active_count(), []
        with pytest.raises(NoNegativesError, match="call 4"):
            for batch in iter_batches(small_dataset, cfg, 1, "min"):
                got.append(batch)
        assert len(got) == 3
        assert threading.active_count() == before
        for g, w in zip(got, want):
            for name in ("users", "pos_items", "negatives"):
                np.testing.assert_array_equal(getattr(g, name), getattr(w, name))
        assert threads[0] is threading.main_thread()
        assert all(t is not threading.main_thread() for t in threads[1:])

    def test_no_thread_outlives_a_pass(self, small_dataset):
        cfg = small_cfg(batch_size=3)
        before = threading.active_count()
        during = [threading.active_count() for _ in iter_batches(small_dataset, cfg, 1, "min")]
        assert during == [before + 1] * 6
        assert threading.active_count() == before

        batches = iter_batches(small_dataset, cfg, 1, "adv")
        for _ in batches:
            break
        assert threading.active_count() == before + 1
        batches.close()
        assert threading.active_count() == before

        one_batch = small_cfg(batch_size=16)
        during = [threading.active_count() for _ in iter_batches(small_dataset, one_batch, 1, "min")]
        assert during == [before]

    def test_min_half_error_surfaces_at_its_batch(self, small_dataset, monkeypatch):
        cfg = small_cfg(batch_size=3)  # 16 train pairs: 6 batches
        state = trained_state(small_dataset, cfg)
        want = list(iter_batches(small_dataset, cfg, 1, "min", trainer._min_half(state)))
        real, threads = trainer._batch_deltas, []

        def fail_on_call_4(*args):
            threads.append(threading.current_thread())
            if len(threads) == 4:
                raise NonFinite("call 4")
            return real(*args)

        monkeypatch.setattr(trainer, "_batch_deltas", fail_on_call_4)
        before, got = threading.active_count(), []
        with pytest.raises(NonFinite, match="call 4"):
            for batch in iter_batches(small_dataset, cfg, 1, "min", trainer._min_half(state)):
                got.append(batch)
        assert len(got) == 3
        assert threading.active_count() == before
        for g, w in zip(got, want):
            assert same_arrays([g.users, g.pos_items, g.negatives, *g.hardness],
                               [w.users, w.pos_items, w.negatives, *w.hardness])
        assert threads[0] is threading.main_thread()
        assert all(t is not threading.main_thread() for t in threads[1:])

    def test_adv_half_error_surfaces_at_its_batch(self):
        dataset = tiny_dataset(n_users=30, n_items=40)
        cfg = small_cfg(batch_size=3)
        state = init_state(dataset, cfg)
        want = list(iter_batches(dataset, cfg, 1, "adv"))
        # zero an item that first appears in batch k >= 2
        seen = set()
        for k, batch in enumerate(want):
            items = set(batch.pos_items.tolist()) | set(batch.negatives.ravel().tolist())
            if k >= 2 and items - seen:
                break
            seen |= items
        else:
            pytest.fail("no item first appears after batch 1")
        state.encoder.item_table.values[min(items - seen)] = 0.0
        reps = representations(state.encoder)
        before, got = threading.active_count(), []
        with pytest.raises(ZeroNormError):
            for batch in iter_batches(dataset, cfg, 1, "adv", trainer._adv_half(state, reps)):
                got.append(batch)
        assert len(got) == k
        assert threading.active_count() == before
        for g, w in zip(got, want):
            assert same_arrays([g.users, g.pos_items, g.negatives, g.scores],
                               [w.users, w.pos_items, w.negatives,
                                trainer._batch_scores(state, w, reps)[0]])

    @pytest.mark.parametrize("backbone,strategy", [("mf", "adv"), ("lightgcn", "rand")])
    def test_run_equals_a_run_without_frozen_halves(self, small_dataset, monkeypatch,
                                                     backbone, strategy):
        # five epochs: adversarial passes (adv) and evaluations after epochs 2 and 4
        cfg = small_cfg(backbone=backbone, hardness_strategy=strategy, batch_size=3,
                        max_epochs=5, eval_every=2)
        prepared = run_training(small_dataset, cfg)
        real, dropped = trainer.iter_batches, []

        def prepare_nothing(dataset, cfg, epoch, phase, frozen=None):
            dropped.append(frozen is not None)
            return real(dataset, cfg, epoch, phase)

        monkeypatch.setattr(trainer, "iter_batches", prepare_nothing)
        unprepared = run_training(small_dataset, cfg)
        # every pass has a frozen half: 5 min passes and, for adv, 2 adversarial ones
        assert dropped == [True] * (7 if strategy == "adv" else 5)
        assert json.dumps(prepared.history, sort_keys=True) \
            == json.dumps(unprepared.history, sort_keys=True)
        assert model_bytes(prepared.state.encoder, prepared.state.hardness) \
            == model_bytes(unprepared.state.encoder, unprepared.state.hardness)
        assert model_bytes(*prepared.state.best) == model_bytes(*unprepared.state.best)

    def test_no_thread_outlives_a_failed_run(self, small_dataset, monkeypatch):
        before = threading.active_count()
        real, during = trainer.min_step, []

        def fail_on_call_2(state, batch):
            during.append(threading.active_count())
            if len(during) == 2:
                raise NonFinite("step 2")
            return real(state, batch)

        monkeypatch.setattr(trainer, "min_step", fail_on_call_2)
        with pytest.raises(NonFinite, match="step 2"):
            run_training(small_dataset, small_cfg(batch_size=3))
        assert during == [before + 1] * 2
        assert threading.active_count() == before


def table_bytes(table):
    """Everything an Adam step moves in a table: values, moments, step count."""
    return (table.values.tobytes() + table.adam_m.tobytes() + table.adam_v.tobytes(),
            table.step_count)


class TestRejectedStep:
    """A step with a non-finite gradient block in its last table moves no
    table: every block is checked before the first Adam update."""

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_min_step_leaves_the_encoder_as_it_was(self, small_dataset, monkeypatch, backbone):
        cfg = small_cfg(backbone=backbone)
        state = init_state(small_dataset, cfg)
        tables = (state.encoder.user_table, state.encoder.item_table)
        before = [table_bytes(t) for t in tables]
        real = trainer.batch_backward

        def nan_item_gradient(*args):
            u_grads, (ids, grads) = real(*args)
            grads[-1, 0] = np.nan
            return u_grads, (ids, grads)

        monkeypatch.setattr(trainer, "batch_backward", nan_item_gradient)
        with pytest.raises(NonFiniteGradient):
            min_step(state, first_batch(small_dataset, cfg))
        assert [table_bytes(t) for t in tables] == before

    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_nan_in_a_read_row_raises_non_finite(self, small_dataset, backbone):
        # row_norms lets NaN through, so only the loss check catches it
        cfg = small_cfg(backbone=backbone)
        state = init_state(small_dataset, cfg)
        batch = first_batch(small_dataset, cfg)
        state.encoder.item_table.values[batch.negatives[0, 0], 0] = np.nan
        tables = (state.encoder.user_table, state.encoder.item_table)
        before = [table_bytes(t) for t in tables]
        with pytest.raises(NonFinite, match="non-finite contrastive loss"):
            min_step(state, batch)
        assert [table_bytes(t) for t in tables] == before

    @pytest.mark.parametrize("kind", ["embed", "mlp"])
    def test_adv_step_leaves_the_hardness_as_it_was(self, small_dataset, monkeypatch, kind):
        cfg = small_cfg(hardness_kind=kind)
        state = init_state(small_dataset, cfg)
        before = [table_bytes(t) for t in state.hardness.tables]
        model = type(state.hardness)
        real = model.grad_batch

        def nan_in_the_last_table(self, *args, **kwargs):
            grads = real(self, *args, **kwargs)
            grads[-1][1][0, 0] = np.nan
            return grads

        monkeypatch.setattr(model, "grad_batch", nan_in_the_last_table)
        with pytest.raises(NonFiniteGradient):
            adv_step(state, first_batch(small_dataset, cfg))
        assert [table_bytes(t) for t in state.hardness.tables] == before


class TestBlocksCheckedOnce:
    """A step checks each gradient block once, before the first table moves;
    Adam then takes the blocks as checked."""

    @pytest.mark.parametrize("step,kind", [(min_step, "embed"), (adv_step, "embed"),
                                           (adv_step, "mlp")],
                             ids=["min", "adv-embed", "adv-mlp"])
    def test_each_block_is_checked_once(self, small_dataset, monkeypatch, step, kind):
        cfg = small_cfg(hardness_kind=kind)
        state = init_state(small_dataset, cfg)
        checked = []
        real = numkit.check_row_grads

        def counted(table, row_grads):
            checked.append(table)
            return real(table, row_grads)

        for module in (numkit, trainer, loss):
            monkeypatch.setattr(module, "check_row_grads", counted)
        step(state, first_batch(small_dataset, cfg))
        tables = ((state.encoder.user_table, state.encoder.item_table) if step is min_step
                  else state.hardness.tables)
        assert [id(t) for t in checked] == [id(t) for t in tables]


def traced_peak(step, state, batch):
    """The traced memory peak of one step, above what was traced before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    step(state, batch)
    return tracemalloc.get_traced_memory()[1] - before


class TestStepMemory:
    """The encoder and the embed hardness model gather item rows a chunk at
    a time, so no step of theirs allocates a (B, 1 + N, d) block. The MLP
    model's (B, N, dim) gather is a block: a pass's steps share one shape,
    so only its first step allocates it, and it stays in the state's
    workspace until the pass ends."""

    @pytest.mark.parametrize("backbone,kind", [("mf", "embed"), ("mf", "mlp"),
                                               ("lightgcn", "embed"), ("lightgcn", "mlp")])
    def test_steps_after_the_first_of_a_pass_allocate_no_block(self, backbone, kind):
        # d = 32, N = 16 and two batches of 280 pairs a pass: one block is
        # 1.2 MB, more than everything else a step allocates. A LightGCN min
        # step also propagates the graph forward and back, whose own arrays
        # (their peak, measured alone, about half a block) join the bound.
        # With embed hardness every step stays below the bound, the first
        # one included, and an adversarial step below one (B, N, h) block.
        dataset = tiny_dataset(n_users=200, n_items=60, seed=1)
        batch_size = -(-len(dataset.train_pairs) // 2)
        cfg = small_cfg(backbone=backbone, hardness_kind=kind, batch_size=batch_size,
                        n_negatives=16, embed_dim=32)
        state = init_state(dataset, cfg)
        block = batch_size * (1 + cfg.n_negatives) * cfg.embed_dim * 8
        # the batches are built first, so no prefetch worker runs during the steps
        min_batches = list(iter_batches(dataset, cfg, 1, "min", trainer._min_half(state)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            representations(state.encoder)
            propagation = tracemalloc.get_traced_memory()[1] - before
            peaks = {}
            with state.workspace:
                peaks["min"] = [traced_peak(min_step, state, b) for b in min_batches]
            frozen = trainer._adv_half(state, representations(state.encoder))
            adv_batches = list(iter_batches(dataset, cfg, 1, "adv", frozen))
            with state.workspace:
                peaks["adv"] = [traced_peak(adv_step, state, b) for b in adv_batches]
        finally:
            tracemalloc.stop()
        assert (propagation > 0) == (backbone == "lightgcn")
        assert [len(b.users) for b in min_batches + adv_batches] == [batch_size] * 4
        hardness_block = batch_size * cfg.n_negatives * cfg.embed_dim * 8  # (B, N, h), h = d
        bounds = {"min": block + propagation, "adv": block if kind == "mlp" else hardness_block}
        for phase, (first, *rest) in peaks.items():
            if kind == "mlp":
                assert first > block  # the pass's buffers
            for peak in rest if kind == "mlp" else [first, *rest]:
                assert peak < bounds[phase], f"{phase} step: peak {peak / block:.2f} blocks"


    @pytest.mark.parametrize("backbone", ["mf", "lightgcn"])
    def test_a_min_pass_keeps_terms_to_one_plan_sum_group(self, backbone):
        # criterion 10's data and shape: B = 1024, N = 16 and d = 32, so one
        # (B, 1 + N, d) block is 557k cells, above CHUNK_CELLS = 65k. TERMS
        # holds the score chunks and the scatters' group gathers.
        spec = SyntheticSpec(n_users=2000, n_items=1000, latent_dim=32,
                             exposure_bias_strength=1.0, train_fraction=0.6,
                             fn_plant_rate=0.2, relevance_quantile=0.02)
        dataset = generate_synthetic(spec).dataset
        cfg = TrainConfig(lr=0.05, lr_adv=0.01, batch_size=1024, n_negatives=16,
                          k_weight=16.0, tau=0.2, backbone=backbone, embed_dim=32)
        state = init_state(dataset, cfg)
        largest_step = 0
        with state.workspace:
            for batch in iter_batches(dataset, cfg, 1, "min", trainer._min_half(state)):
                min_step(state, batch)
                largest_step = max(largest_step, batch.score_index[1].plan.offsets[1])
            terms = state.workspace._buffers[numkit.TERMS].size
        block = cfg.batch_size * (1 + cfg.n_negatives) * cfg.embed_dim
        assert terms <= max(numkit.CHUNK_CELLS, largest_step * cfg.embed_dim) < block

    def test_an_adversarial_pass_requests_no_item_term_block(self, small_dataset, monkeypatch):
        # the embed model's item rows are gathered in chunks, and its item
        # sums are weighted gathers of the user rows, all in TERMS; the MLP
        # model keeps its GATHER block, and its dense sums need no TERMS
        real, requested = Workspace.empty, set()

        def record(self, role, shape):
            requested.add(role)
            return real(self, role, shape)

        monkeypatch.setattr(Workspace, "empty", record)
        for kind, roles in (("embed", {numkit.TERMS}), ("mlp", {numkit.GATHER})):
            cfg = small_cfg(hardness_kind=kind)
            state = init_state(small_dataset, cfg)
            frozen = trainer._adv_half(state, representations(state.encoder))
            requested.clear()
            with state.workspace:
                for batch in iter_batches(small_dataset, cfg, 1, "adv", frozen):
                    adv_step(state, batch)
            assert requested == roles, kind


class TestWorkspace:
    """A workspace belongs to one TrainState and to the thread that steps it."""

    def test_a_step_between_a_forward_and_its_backward_leaves_both_as_alone(
            self, small_dataset, monkeypatch):
        # another state's whole min step runs inside each of this state's min
        # steps, after its forward: a workspace shared between the two would
        # hand the second forward this forward's item rows
        cfg_a = small_cfg(batch_size=3)
        cfg_b = small_cfg(batch_size=3, backbone="lightgcn", hardness_kind="mlp", seed=5)
        batches_a = list(iter_batches(small_dataset, cfg_a, 1, "min"))
        batches_b = list(iter_batches(small_dataset, cfg_b, 1, "min"))
        alone_a, alone_b = init_state(small_dataset, cfg_a), init_state(small_dataset, cfg_b)
        for batch in batches_a:
            min_step(alone_a, batch)
        for batch in batches_b:
            min_step(alone_b, batch)

        a, b = init_state(small_dataset, cfg_a), init_state(small_dataset, cfg_b)
        real, pending = trainer.batch_backward, iter(batches_b)

        def step_b_first(enc, cache, upstream):
            if enc is a.encoder:
                min_step(b, next(pending))
            return real(enc, cache, upstream)

        monkeypatch.setattr(trainer, "batch_backward", step_b_first)
        with a.workspace, b.workspace:
            for batch in batches_a:
                min_step(a, batch)
        assert next(pending, None) is None
        assert model_bytes(a.encoder, a.hardness) == model_bytes(alone_a.encoder, alone_a.hardness)
        assert model_bytes(b.encoder, b.hardness) == model_bytes(alone_b.encoder, alone_b.hardness)

    @pytest.mark.parametrize("kind", ["embed", "mlp"])
    def test_interleaved_adversarial_steps_equal_steps_alone(self, small_dataset, kind):
        cfg_a, cfg_b = small_cfg(batch_size=3, hardness_kind=kind), small_cfg(batch_size=5, seed=6)
        batches_a = list(iter_batches(small_dataset, cfg_a, 1, "adv"))
        batches_b = list(iter_batches(small_dataset, cfg_b, 1, "adv"))
        alone_a, alone_b = init_state(small_dataset, cfg_a), init_state(small_dataset, cfg_b)
        for batch in batches_a:
            adv_step(alone_a, batch)
        for batch in batches_b:
            adv_step(alone_b, batch)
        a, b = init_state(small_dataset, cfg_a), init_state(small_dataset, cfg_b)
        assert a.workspace is not b.workspace
        for k in range(max(len(batches_a), len(batches_b))):
            for state, steps in ((a, batches_a), (b, batches_b)):
                if k < len(steps):
                    adv_step(state, steps[k])
        assert hardness_bytes(a) == hardness_bytes(alone_a)
        assert hardness_bytes(b) == hardness_bytes(alone_b)

    @pytest.mark.parametrize("backbone,kind", [("mf", "embed"), ("lightgcn", "mlp")])
    def test_only_the_main_thread_asks_and_no_buffer_outlives_a_pass(
            self, small_dataset, monkeypatch, backbone, kind):
        real, requests = Workspace.empty, []

        def record(self, role, shape):
            requests.append((threading.current_thread(), self._buffers.copy()))
            return real(self, role, shape)

        monkeypatch.setattr(Workspace, "empty", record)
        cfg = small_cfg(batch_size=3, backbone=backbone, hardness_kind=kind, t_adv_interval=1)
        state = init_state(small_dataset, cfg)
        assert train_epoch(state, small_dataset) is not None
        assert requests and all(t is threading.main_thread() for t, _ in requests)
        # each pass starts with an empty workspace and leaves one
        starts = [k for k, (_, buffers) in enumerate(requests) if not buffers]
        assert starts[0] == 0 and len(starts) == 2
        assert state.workspace._buffers == {}

    def test_a_second_backward_on_a_workspace_cache_returns_the_same_bytes(self, small_dataset):
        # the backward gathers the forward's item rows again, from its table
        state = init_state(small_dataset, small_cfg())
        batch = first_batch(small_dataset, small_cfg())
        items = np.concatenate([batch.pos_items[:, None], batch.negatives], axis=1)
        upstream = np.random.default_rng(50).normal(size=items.shape)
        _, fresh = batch_forward(state.encoder, batch.users, items)
        want = batch_backward(state.encoder, fresh, upstream)
        _, cache = batch_forward(state.encoder, batch.users, items, ws=Workspace())
        for _ in range(2):
            got = batch_backward(state.encoder, cache, upstream)
            assert same_arrays(got[0], want[0]) and same_arrays(got[1], want[1])
            cache.ws.empty(numkit.TERMS, (64,)).fill(np.nan)  # a used chunk buffer


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(hardness_strategy="bogus")
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(backbone="transformer")
        for field, value in (("gcn_layers", -1), ("gcn_layers", -2), ("hardness_dim", -1),
                             ("k_weight", float("inf")),
                             ("lr", float("nan")), ("lr_adv", float("inf")),
                             ("tau", float("inf"))):
            with pytest.raises(ValueError, match=field):
                TrainConfig(**{field: value})
        TrainConfig(backbone="lightgcn", gcn_layers=0, hardness_dim=0)

    @pytest.mark.parametrize("seed", [-5, -1, 2**32, 2**32 + 7, 1.5])
    def test_rejects_a_seed_outside_32_bits(self, seed):
        # a seed outside 32 bits would alias one inside: 2**32 + 7 would replay seed 7
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*32\)"):
            TrainConfig(seed=seed)


def reference_hardness_arrays(kind, n_users, n_items, dim, seed, h):
    """Each model's initial parameters of width h, drawn from its named rng
    streams as written out here."""
    if kind == "embed":
        item = EmbeddingTable.uniform_init(n_items, h, substream(seed, "init-adv-item"))
        return {"adv_user": np.zeros((n_users, h)), "adv_item": item.values}
    bound = 0.5 / np.sqrt(dim)
    return {"w_user": substream(seed, "init-mlp-user").uniform(-bound, bound, size=(h, dim)),
            "b_user": np.zeros(h),
            "w_item": substream(seed, "init-mlp-item").uniform(-bound, bound, size=(h, dim)),
            "b_item": np.zeros(h)}


class TestBuildHardness:
    @pytest.mark.parametrize("kind,default_width", [("embed", 6), ("mlp", 4)])
    @pytest.mark.parametrize("hardness_dim", [0, 5])
    def test_width_and_initial_bytes(self, small_dataset, kind, default_width, hardness_dim):
        """hardness_dim 0 gives embed tables (n, embed_dim) and MLP weights
        (4, embed_dim); any other value is the width of either kind."""
        cfg = small_cfg(hardness_kind=kind, hardness_dim=hardness_dim, embed_dim=6, seed=3)
        model = build_hardness(cfg, small_dataset.n_users, small_dataset.n_items)
        h = hardness_dim or default_width
        want = reference_hardness_arrays(kind, small_dataset.n_users, small_dataset.n_items,
                                         6, 3, h)
        got = model.param_arrays()
        assert model.kind == kind and list(got) == list(want)
        for name, arr in want.items():
            assert got[name].shape == arr.shape and got[name].tobytes() == arr.tobytes(), name
