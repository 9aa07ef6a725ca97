"""Smoke tests for tools/config_hashes.py, the script that byte-identity
claims between two source trees rest on, and tools/step_faults.py."""

import importlib.util
import itertools
import os
import re
from copy import deepcopy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from advrec import encoder, loss, trainer
from advrec.dataio import SyntheticSpec, generate_synthetic

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """A fresh module of tools/<name>.py, with the environment restored
    after it loads (step_faults pins the BLAS threads for itself)."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["config_hashes", "step_faults"])
def test_tools_run_the_acceptance_configuration(name):
    # each tool spells out criteria 10/11's dataset and training config
    import test_acceptance
    module = load_tool(name)
    assert module.SPEC == test_acceptance.EXPERIMENT_SPEC
    assert {**module.CFG, "backbone": "mf"} == test_acceptance.EXPERIMENT_CFG


@pytest.fixture(scope="module")
def config_hashes():
    module = load_tool("config_hashes")
    module.SPEC = {**module.SPEC, "n_users": 300, "n_items": 150}
    module.CFG = {**module.CFG, "max_epochs": 3, "eval_every": 1}
    return module


@pytest.mark.parametrize("backbone,strategy,hardness", [("lightgcn", "adv", "embed"),
                                                        ("mf", "adv", "mlp"),
                                                        ("mf", "rand", "embed")])
def test_hashes_are_repeatable(config_hashes, backbone, strategy, hardness):
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    first = config_hashes.config_hashes(data, backbone, strategy, hardness)
    second = config_hashes.config_hashes(data, backbone, strategy, hardness)
    assert first == second
    assert len(first) == 2
    for digest in first:
        assert len(digest) == 16 and int(digest, 16) >= 0


def test_hashes_without_a_validation(config_hashes, monkeypatch):
    # eval_every beyond max_epochs: no validation runs, so no best encoder
    monkeypatch.setattr(config_hashes, "CFG", {**config_hashes.CFG, "eval_every": 5})
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    first = config_hashes.config_hashes(data, "mf", "adv", "embed")
    assert first == config_hashes.config_hashes(data, "mf", "adv", "embed")


def test_rows_cover_every_engine_configuration(config_hashes, monkeypatch, capsys):
    # a backbone, strategy or hardness model added to the engine gets a row; a
    # strategy that builds no hardness model gets one row, trained with the
    # default kind, since every kind would train the same run
    trained = []
    monkeypatch.setattr(config_hashes, "ingest_hash", lambda data: "-")
    monkeypatch.setattr(config_hashes, "cli_hash", lambda: ("-", "-"))
    monkeypatch.setattr(config_hashes, "generate_hash", lambda: "-")
    monkeypatch.setattr(config_hashes, "config_hashes",
                        lambda data, *config: trained.append(config) or ("t", "d"))
    config_hashes.main()
    rows = [tuple(line.strip("| ").split(" | ")) for line in capsys.readouterr().out.splitlines()]
    want = [(backbone, strategy, kind)
            for backbone, strategy in itertools.product(encoder.BACKBONES, trainer.STRATEGIES)
            for kind in (loss.HARDNESS_MODELS if strategy in trainer.HARDNESS_STRATEGIES
                         else [None])]
    assert [row[:3] for row in rows if row[3:] == ("t", "d")] \
        == [(backbone, strategy, kind or "-") for backbone, strategy, kind in want]
    assert trained == want
    assert len(want) == 12  # adv and reverse x 2 kinds, rand and none once, per backbone


def test_ingest_row(config_hashes, monkeypatch, capsys):
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    digest = config_hashes.ingest_hash(data)
    assert re.fullmatch("[0-9a-f]{16}", digest)
    assert config_hashes.ingest_hash(data) == digest
    # the row main prints, here without the training rows
    monkeypatch.setattr(config_hashes, "BACKBONES", ())
    config_hashes.main()
    assert f"| ingest | - | - | {digest} | - |" in capsys.readouterr().out.splitlines()


def test_generate_row(config_hashes, monkeypatch, capsys):
    # the grid holds specs that generate and specs that raise DegenerateSpec
    real, outcomes = config_hashes.generate_synthetic, []

    def record(spec):
        try:
            data = real(spec)
        except config_hashes.DegenerateSpec:
            outcomes.append("degenerate")
            raise
        outcomes.append("generated")
        return data

    monkeypatch.setattr(config_hashes, "generate_synthetic", record)
    digest = config_hashes.generate_hash()
    assert re.fullmatch("[0-9a-f]{16}", digest)
    assert {"degenerate", "generated"} == set(outcomes)
    assert len(outcomes) == 3 * len(config_hashes.GENERATE_QUANTILES) \
        * len(config_hashes.GENERATE_STRENGTHS)
    assert config_hashes.generate_hash() == digest
    monkeypatch.setattr(config_hashes, "BACKBONES", ())
    config_hashes.main()
    assert f"| generate | - | - | {digest} | - |" in capsys.readouterr().out.splitlines()


def test_cli_row(config_hashes, monkeypatch, capsys):
    run, fixed = config_hashes.cli_hash()
    assert re.fullmatch("[0-9a-f]{16}", run) and re.fullmatch("[0-9a-f]{16}", fixed)
    assert config_hashes.cli_hash() == (run, fixed)
    monkeypatch.setattr(config_hashes, "BACKBONES", ())
    config_hashes.main()
    assert f"| cli | - | - | {run} | {fixed} |" in capsys.readouterr().out.splitlines()


def test_cli_fixed_hash_does_not_read_the_trained_run(config_hashes, monkeypatch):
    # another train seed moves the run hash, not the fixed checkpoint's;
    # other fixed parameters move the fixed hash alone
    run, fixed = config_hashes.cli_hash()
    train = list(config_hashes.CLI_TRAIN)
    train[train.index("--seed") + 1] = "2"
    monkeypatch.setattr(config_hashes, "CLI_TRAIN", train)
    other_run, other_fixed = config_hashes.cli_hash()
    assert other_run != run and other_fixed == fixed
    monkeypatch.setattr(config_hashes, "FIXED_SCALE", 0.25)
    scaled_run, scaled_fixed = config_hashes.cli_hash()
    assert scaled_run == other_run and scaled_fixed != fixed


@pytest.mark.parametrize("hardness", ["embed", "mlp"])
def test_train_hash_covers_the_best_hardness(config_hashes, monkeypatch, hardness):
    # best.ckpt's hardness half is a copy: nudging it leaves the final model as it was
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    first = config_hashes.config_hashes(data, "mf", "adv", hardness)
    real = config_hashes.run_training

    def nudge_best_hardness(dataset, cfg):
        result = real(dataset, cfg)
        result.state.best[1].tables[0].values[0, 0] += 1.0
        return result

    monkeypatch.setattr(config_hashes, "run_training", nudge_best_hardness)
    train, diag = config_hashes.config_hashes(data, "mf", "adv", hardness)
    assert train != first[0] and diag == first[1]


@pytest.fixture(scope="module")
def trained_runs(config_hashes):
    """The dataset, and per hardness kind the mf adv training result and the
    train hash the tool gives it."""
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    runs = {}
    for kind in loss.HARDNESS_MODELS:
        results = []

        def keep(dataset, cfg):
            results.append(trainer.run_training(dataset, cfg))
            return results[-1]

        with mock.patch.object(config_hashes, "run_training", keep):
            train, _ = config_hashes.config_hashes(data, "mf", "adv", kind)
        runs[kind] = results[0], train
    return data, runs


@pytest.mark.parametrize("hardness", ["embed", "mlp"])
@pytest.mark.parametrize("snapshot", ["final", "best"])
def test_train_hash_moves_with_one_ulp_of_any_array(config_hashes, trained_runs, monkeypatch,
                                                     hardness, snapshot):
    # the checkpoint bytes cover every encoder table and hardness parameter
    # array: one ulp more in any one element of any of them moves the hash
    data, runs = trained_runs
    result, train = runs[hardness]
    assert result.state.best is not None

    def arrays(result):
        state = result.state
        enc, model = (state.encoder, state.hardness) if snapshot == "final" else state.best
        return {"user_table": enc.user_table.values, "item_table": enc.item_table.values,
                **model.param_arrays()}

    def run_with(nudge):
        def run_training(dataset, cfg):
            copy = deepcopy(result)
            nudge(arrays(copy))
            return copy
        monkeypatch.setattr(config_hashes, "run_training", run_training)
        return config_hashes.config_hashes(data, "mf", "adv", hardness)[0]

    assert run_with(lambda named: None) == train
    names = sorted(arrays(result))
    assert len(names) == 2 + len(loss.HARDNESS_MODELS[hardness].LAYOUT)
    for name in names:
        def nudge(named):
            flat = named[name].reshape(-1)
            flat[-1] = np.nextafter(flat[-1], np.inf)
        assert run_with(nudge) != train, name


@pytest.mark.parametrize("which", ["final.ckpt", "best.ckpt"])
def test_train_hash_covers_the_saved_checkpoints(config_hashes, monkeypatch, which):
    # a writer that appends one byte to one of the two files moves the train hash alone
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    first = config_hashes.config_hashes(data, "mf", "adv", "embed")
    real = config_hashes.save_checkpoint
    saved = []

    def append_a_byte(path, enc, hardness=None):
        real(path, enc, hardness)
        saved.append(path.name)
        if path.name == which:
            with open(path, "ab") as fh:
                fh.write(b"\0")

    monkeypatch.setattr(config_hashes, "save_checkpoint", append_a_byte)
    train, diag = config_hashes.config_hashes(data, "mf", "adv", "embed")
    assert sorted(saved) == ["best.ckpt", "final.ckpt"]
    assert train != first[0] and diag == first[1]


def test_diag_hash_covers_the_per_user_table(config_hashes, monkeypatch):
    # the same means over permuted per-user values: only the diag hash moves
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    first = config_hashes.config_hashes(data, "mf", "rand", "embed")
    real = config_hashes.evaluate_split

    def permute_per_user(*args):
        report = real(*args)
        if args[-1] == config_hashes.CFG["k_eval"]:  # the other ks' tables are left as they are
            users, values = list(report.per_user), list(report.per_user.values())
            report.per_user = dict(zip(users, values[1:] + values[:1]))
            assert report.per_user != dict(zip(users, values))
        return report

    monkeypatch.setattr(config_hashes, "evaluate_split", permute_per_user)
    train, diag = config_hashes.config_hashes(data, "mf", "rand", "embed")
    assert train == first[0] and diag != first[1]


def test_diag_hash_covers_both_ends_of_the_cutoff(config_hashes, monkeypatch):
    # the per-user tables at k = 1 and k = n_items are hashed: permuting the
    # k = n_items table alone moves the diag hash
    data = generate_synthetic(SyntheticSpec(seed=config_hashes.SEED, **config_hashes.SPEC))
    first = config_hashes.config_hashes(data, "mf", "rand", "embed")
    real, ks = config_hashes.evaluate_split, []

    def permute_at_n_items(*args):
        report = real(*args)
        ks.append(args[-1])
        if args[-1] == data.dataset.n_items:
            users, values = list(report.per_user), list(report.per_user.values())
            report.per_user = dict(zip(users, values[1:] + values[:1]))
            assert report.per_user != dict(zip(users, values))
        return report

    monkeypatch.setattr(config_hashes, "evaluate_split", permute_at_n_items)
    train, diag = config_hashes.config_hashes(data, "mf", "rand", "embed")
    assert ks == [config_hashes.CFG["k_eval"], 1, data.dataset.n_items]
    assert train == first[0] and diag != first[1]


@pytest.fixture(scope="module")
def step_faults():
    module = load_tool("step_faults")
    module.SPEC = {**module.SPEC, "n_users": 60, "n_items": 40, "latent_dim": 6,
                   "relevance_quantile": 0.08}
    module.CFG = {**module.CFG, "batch_size": 32, "n_negatives": 4, "embed_dim": 8,
                  "max_epochs": 3, "t_adv_interval": 1, "e_adv_max": 2, "eval_every": 3}
    return module


def test_step_faults_prints_a_row_per_backbone(step_faults, capsys):
    # fault counts depend on the allocator, so only their form is checked
    step_faults.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("| backbone | hardness | run_s | run faults | min steps | ms/min step "
                        "| faults/min pass | adv steps | ms/adv step | faults/adv pass | samples "
                        "| ms/sample | reps | ms/reps | faults/reps |")
    assert lines[1] == "|" + " --- |" * 15
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    assert [tuple(row[:2]) for row in rows] \
        == list(itertools.product(encoder.BACKBONES, loss.HARDNESS_MODELS))
    for row in rows:
        (run_s, run_faults, min_steps, min_ms, min_faults, adv_steps, adv_ms, adv_faults,
         samples, sample_ms, reps, reps_ms, reps_faults) = row[2:]
        assert float(run_s) > 0 and int(run_faults) >= 0
        # 3 epochs of min steps, 2 adversarial passes (the budget), same batches
        assert int(min_steps) == 3 * int(adv_steps) / 2 > 0
        assert float(min_ms) > 0 and float(adv_ms) > 0
        # the median pass's faults, summed over its steps, within the run's
        assert 0 <= float(min_faults) <= int(run_faults)
        assert 0 <= float(adv_faults) <= int(run_faults)
        # one sampler call per batch of either pass
        assert int(samples) == int(min_steps) + int(adv_steps) and float(sample_ms) > 0
        # one representations call before each adversarial pass; MF's returns its tables
        assert int(reps) == 2 and float(reps_ms) >= 0
        assert float(reps_ms) > 0 or row[0] == encoder.MF
        assert 0 <= float(reps_faults) <= int(run_faults)
    assert step_faults.trainer.min_step.__name__ == "min_step"  # restored
    assert step_faults.trainer.sample_negatives.__name__ == "sample_negatives"
    assert step_faults.trainer.representations.__name__ == "representations"
