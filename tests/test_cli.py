"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from advrec import cli
from advrec.checkpoint import load_checkpoint, save_checkpoint
from advrec.cli import main
from advrec.dataio import (SyntheticSpec, gamma_quotas, gamma_resplit, generate_synthetic,
                           load_interactions, read_pairs)
from advrec.encoder import build_encoder
from advrec.evaluation import (
    alignment_uniformity,
    evaluate_split,
    fn_identification_rate,
    hardness_popularity_profile,
)
from advrec.rng import substream
from advrec.trainer import HARDNESS_STRATEGIES


GEN_ARGS = ["--n_users", "60", "--n_items", "40", "--latent_dim", "6",
            "--relevance_quantile", "0.08", "--train_fraction", "0.55",
            "--fn_plant_rate", "0.3", "--exposure_bias_strength", "1.0",
            "--seed", "3"]


def generate(tmp_path, name="data", extra=()):
    out = tmp_path / name
    code = main(["generate", "--out", str(out), *GEN_ARGS, *extra])
    assert code == 0
    return out


def load(data):
    return load_interactions(data / "train.tsv", data / "valid.tsv", data / "test.tsv")


def read_csv(path):
    """Header and rows of a CSV the CLI wrote, each field parsed exactly by
    int or float; a field written as a numpy scalar's repr fails to parse."""
    header, *lines = path.read_text().splitlines()
    return header, [tuple(int(f) if f.lstrip("-").isdigit() else float(f)
                          for f in line.split(",")) for line in lines]


def assert_rows_equal(rows, expected):
    # exact, with nan (an empty profile bin) equal to nan
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        for got, value in zip(row, want):
            assert type(got) is type(value)
            assert got == value or (got != got and value != value), (row, want)


# The train options read only by the strategies that train an adversary.
ADVERSARY_KEYS = ("hardness_kind", "hardness_dim", "lr_adv", "e_adv_max", "t_adv_interval")


def train(tmp_path, data, name="run", extra=()):
    """advrec train on data; the adversary's options are passed only with a
    strategy that trains an adversary (the default, adv)."""
    out = tmp_path / name
    extra = list(extra)
    flag = "--hardness_strategy"
    strategy = extra[extra.index(flag) + 1] if flag in extra else "adv"
    adversary = (["--lr_adv", "0.01", "--t_adv_interval", "1", "--e_adv_max", "2"]
                 if strategy in HARDNESS_STRATEGIES else [])
    code = main([
        "train",
        "--train_file", str(data / "train.tsv"),
        "--valid_file", str(data / "valid.tsv"),
        "--test_file", str(data / "test.tsv"),
        "--out", str(out),
        "--embed_dim", "8", "--batch_size", "64", "--n_negatives", "4",
        "--k_weight", "4", "--tau", "0.2", "--lr", "0.05", *adversary,
        "--max_epochs", "3", "--seed", "1", *extra,
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_byte_identical_across_runs(self, tmp_path):
        d1 = generate(tmp_path, "one")
        d2 = generate(tmp_path, "two")
        for name in ("train.tsv", "valid.tsv", "test.tsv", "planted_fn.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_zero_plant_rate_empty_fn_file(self, tmp_path):
        out = tmp_path / "nofn"
        code = main(["generate", "--out", str(out), "--n_users", "40",
                     "--n_items", "30", "--fn_plant_rate", "0", "--seed", "4"])
        assert code == 0
        assert (out / "planted_fn.tsv").read_text() == ""

    def test_gamma_mode_manifest_quotas(self, tmp_path):
        # 150 items: with GEN_ARGS' 40, the 50 groups' quotas take the whole pool
        out = tmp_path / "gamma"
        code = main(["generate", "--out", str(out), *GEN_ARGS, "--n_items", "150",
                     "--gamma", "4.0", "--n0", "10"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = gamma_quotas(10, 4.0, 50)
        np.testing.assert_array_equal(manifest["quotas"], expected)
        assert manifest["mode"] == "gamma"
        assert sum(manifest["drawn"]) == len(read_pairs(out / "test.tsv"))
        assert len(read_pairs(out / "train.tsv")) > 0

    def test_gamma_mode_default_groups_and_n0(self, tmp_path):
        out = tmp_path / "gamma"
        code = main(["generate", "--out", str(out), "--n_users", "400", "--n_items", "200",
                     "--relevance_quantile", "0.1", "--exposure_bias_strength", "1.0",
                     "--gamma", "4.0"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["groups"], manifest["n0"]) == (50, 100)
        np.testing.assert_array_equal(manifest["quotas"], gamma_quotas(100, 4.0, 50))

    @pytest.mark.parametrize("flags", [["--groups", "1", "--n0", "0"], ["--groups", "5"],
                                       ["--n0", "10"]])
    def test_split_flags_without_gamma_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "bad"
        code = main(["generate", "--out", str(out), *GEN_ARGS, *flags])
        assert code == 2
        assert "apply only with --gamma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/data"])
    def test_out_that_cannot_be_a_directory_exits_2_before_generating(
            self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "file").write_text("kept")
        out = tmp_path / out

        def never(spec):
            raise AssertionError("generate_synthetic ran before --out was checked")

        monkeypatch.setattr(cli, "generate_synthetic", never)
        assert main(["generate", "--out", str(out), *GEN_ARGS]) == 2
        err = capsys.readouterr().err
        assert f"--out {out} is not a directory path: {tmp_path / 'file'} is not a directory" \
            in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_gamma_quotas_taking_the_whole_pool_exit_2(self, tmp_path, capsys):
        out = tmp_path / "gamma"
        code = main(["generate", "--out", str(out), *GEN_ARGS, "--gamma", "4.0", "--n0", "10"])
        assert code == 2
        assert "the test quotas drew 65 of the 65 pool pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_gamma_mode_resplits_the_observed_pool(self, tmp_path):
        biased = generate(tmp_path, "biased")
        gamma = generate(tmp_path, "gamma",
                         extra=["--gamma", "4.0", "--n0", "10", "--groups", "5"])
        assert sorted(p.name for p in gamma.glob("*.tsv")) == \
            ["planted_fn.tsv", "test.tsv", "train.tsv", "valid.tsv"]
        assert (gamma / "planted_fn.tsv").read_bytes() == b""
        split = [read_pairs(gamma / f"{name}.tsv") for name in ("train", "valid", "test")]
        pool = [read_pairs(biased / f"{name}.tsv") for name in ("train", "valid")]
        assert all(len(pairs) for pairs in split)
        assert sum(map(len, split)) == sum(map(len, pool))
        assert set(map(tuple, np.concatenate(split).tolist())) == \
            set(map(tuple, np.concatenate(pool).tolist()))

    def test_gamma_resplit_equals_the_written_files(self, tmp_path):
        gamma = generate(tmp_path, "gamma",
                         extra=["--gamma", "4.0", "--n0", "10", "--groups", "5"])
        spec = SyntheticSpec(n_users=60, n_items=40, latent_dim=6, relevance_quantile=0.08,
                             train_fraction=0.55, fn_plant_rate=0.3,
                             exposure_bias_strength=1.0, seed=3)  # GEN_ARGS
        data, split = gamma_resplit(generate_synthetic(spec), 4.0, 10, 5, spec.seed)
        for name in ("train", "valid", "test"):
            np.testing.assert_array_equal(data.dataset.pairs(name),
                                          read_pairs(gamma / f"{name}.tsv"))
        assert data.planted_fn.shape == (0, 2)
        manifest = json.loads((gamma / "manifest.json").read_text())
        assert (manifest["quotas"], manifest["drawn"]) == \
            (split.quotas.tolist(), split.drawn.tolist())

    @pytest.mark.parametrize("cfg_text,line", [("n_users=50\nn_users=60\n", 2),
                                               ("n_users=50\n# note\n\n n_users = 50\n", 4)])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, cfg_text, line):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(cfg_text)
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        assert code == 2
        assert f"{cfg}:{line}: duplicate config key 'n_users'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_bad_spec_exits_2(self, tmp_path):
        code = main(["generate", "--out", str(tmp_path / "bad"),
                     "--train_fraction", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "nan"), ("--gamma", "inf"), ("--gamma", "-1"), ("--n0", "0"),
        ("--groups", "1"), ("--n0", str(10**400)), ("--exposure_bias_strength", "inf"),
        ("--exposure_bias_strength", "nan"),
    ])
    def test_bad_value_exits_2_before_writing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bad"
        extra = [] if flag.startswith("--exposure") else ["--gamma", "2"]
        code = main(["generate", "--out", str(out), "--n_users", "200", "--n_items", "100",
                     *extra, flag, value])
        assert code == 2
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["4294967303", "-5"])
    def test_seed_outside_32_bits_exits_2_before_writing(self, tmp_path, capsys, seed):
        # 4294967303 is 2**32 + 7, which would write seed 7's dataset
        out = tmp_path / "bad"
        code = main(["generate", "--out", str(out), *GEN_ARGS, "--seed", seed])
        assert code == 2
        assert f"seed must be an integer in [0, 2**32), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_users=40\nn_items 30\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        assert code == 2
        assert f"{cfg}:2: expected key=value" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_users=40\nn_item=30\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "n_item" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_config_out_writes_there_and_the_flag_beats_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a relative out= resolves here
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_users=30\nn_items=20\nout=gen_from_cfg\n")
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "gen_from_cfg" / "train.tsv").is_file()
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        for name in ("train.tsv", "valid.tsv", "test.tsv", "planted_fn.tsv", "spec.resolved"):
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "gen_from_cfg" / name).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flag", "gen.cfg", "gen_from_cfg"]

    def test_gamma_in_config_exits_2(self, tmp_path, capsys):
        # gamma, groups and n0 are flags only
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_users=30\ngamma=2.0\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        assert code == 2
        assert f"{cfg}:2: unknown config key 'gamma'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


class TestTrain:
    def test_no_train_file_exits_2(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.tsv")
        code = main(["train", "--valid_file", absent, "--test_file", absent,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "missing required dataset path" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_train_file_exits_2(self, tmp_path, capsys):
        code = main(["train", "--train_file", str(tmp_path / "absent.tsv"),
                     "--valid_file", str(tmp_path / "absent.tsv"),
                     "--test_file", str(tmp_path / "absent.tsv")])
        assert code == 2
        assert "absent.tsv" in capsys.readouterr().err

    def test_test_pair_also_in_train_exits_2(self, tmp_path, capsys):
        (tmp_path / "train.tsv").write_text("0\t0\n1\t1\n")
        (tmp_path / "valid.tsv").write_text("")
        (tmp_path / "test.tsv").write_text("1\t1\n")
        code = main(["train", "--train_file", str(tmp_path / "train.tsv"),
                     "--valid_file", str(tmp_path / "valid.tsv"),
                     "--test_file", str(tmp_path / "test.tsv"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "also a train pair" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--gcn_layers", "-2"), ("--gcn_layers", "-1"), ("--hardness_dim", "-1"),
        ("--k_weight", "1e400"), ("--lr", "nan"), ("--seed", "-5"), ("--seed", "4294967296"),
        ("--hardness_kind", "bogus"),
    ])
    def test_bad_config_value_exits_2_before_loading(self, tmp_path, capsys, flag, value):
        # The dataset files do not exist: the config is rejected before they load.
        absent = str(tmp_path / "absent.tsv")
        code = main(["train", "--train_file", absent, "--valid_file", absent,
                     "--test_file", absent, "--out", str(tmp_path / "run"),
                     "--backbone", "lightgcn", "--hardness_kind", "mlp", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert flag[2:] in err and "absent.tsv" not in err

    @pytest.mark.parametrize("out", ["file", "file/run"])
    def test_out_that_cannot_be_a_directory_exits_2_before_loading(
            self, tmp_path, capsys, monkeypatch, out):
        data = generate(tmp_path)
        (tmp_path / "file").write_text("kept")
        out = tmp_path / out

        def never(*paths):
            raise AssertionError("load_interactions ran before --out was checked")

        monkeypatch.setattr(cli, "load_interactions", never)
        capsys.readouterr()
        assert main(["train", "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out {out} is not a directory path: {tmp_path / 'file'} is not a directory" \
            in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "file"]
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("option,given,source", [
        ("gcn_layers", {"backbone": "mf", "gcn_layers": "5"}, "flag"),
        ("gcn_layers", {"backbone": "mf", "gcn_layers": "2"}, "config"),
        ("hardness_kind", {"hardness_strategy": "none", "hardness_kind": "mlp"}, "flag"),
        ("hardness_kind", {"hardness_strategy": "rand", "hardness_kind": "embed"}, "config"),
        ("hardness_dim", {"hardness_strategy": "rand", "hardness_dim": "3"}, "flag"),
        ("hardness_dim", {"hardness_strategy": "none", "hardness_dim": "0"}, "config"),
        ("lr_adv", {"hardness_strategy": "none", "lr_adv": "0.01"}, "flag"),
        ("lr_adv", {"hardness_strategy": "rand", "lr_adv": "5e-05"}, "config"),
        ("e_adv_max", {"hardness_strategy": "rand", "e_adv_max": "2"}, "flag"),
        ("e_adv_max", {"hardness_strategy": "none", "e_adv_max": "7"}, "config"),
        ("t_adv_interval", {"hardness_strategy": "none", "t_adv_interval": "1"}, "flag"),
        ("t_adv_interval", {"hardness_strategy": "rand", "t_adv_interval": "5"}, "config"),
    ], ids=["flag", "config", "none-hardness_kind-flag", "rand-hardness_kind-config",
            "rand-hardness_dim-flag", "none-hardness_dim-config", "none-lr_adv-flag",
            "rand-lr_adv-config", "rand-e_adv_max-flag", "none-e_adv_max-config",
            "none-t_adv_interval-flag", "rand-t_adv_interval-config"])
    def test_gcn_layers_with_mf_exits_2_before_loading(self, tmp_path, capsys, option, given,
                                                       source):
        # gcn_layers is read only by the graph backbone, and the hardness and
        # adversary options only by strategies with a hardness model; the rest
        # ignore them, even at their default values
        absent = str(tmp_path / "absent.tsv")
        args = [arg for key, value in given.items() for arg in (f"--{key}", value)]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in given.items()))
            args = ["--config", str(cfg)]
        code = main(["train", "--train_file", absent, "--valid_file", absent,
                     "--test_file", absent, "--out", str(tmp_path / "run"), *args])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{option} applies only to" in err and "absent.tsv" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra,omitted", [
        ((), ("gcn_layers",)),
        (("--hardness_strategy", "none"), ("gcn_layers", *ADVERSARY_KEYS)),
        (("--hardness_strategy", "rand", "--backbone", "lightgcn"), ADVERSARY_KEYS),
    ], ids=["gcn_layers", "none", "rand-lightgcn"])
    def test_mf_snapshot_omits_gcn_layers_and_replays(self, tmp_path, extra, omitted):
        data = generate(tmp_path)
        r1 = train(tmp_path, data, "r1", extra)
        keys = {line.partition("=")[0]
                for line in (r1 / "config.resolved").read_text().splitlines()}
        assert not keys & set(omitted)
        assert {"gcn_layers", *ADVERSARY_KEYS} - keys == set(omitted)
        r2 = tmp_path / "r2"
        assert main(["train", "--config", str(r1 / "config.resolved"), "--out", str(r2)]) == 0
        for name in ("metrics.jsonl", "best.ckpt", "final.ckpt"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        data = generate(tmp_path)
        cfg = tmp_path / "run.cfg"
        # adv_dim and mlp_latent: the two hardness widths that hardness_dim replaced
        for key, value in (("max_epoch", 3), ("adv_dim", 8), ("mlp_latent", 4)):
            cfg.write_text(f"train_file={data / 'train.tsv'}\n{key}={value}\n")
            code = main(["train", "--config", str(cfg),
                         "--valid_file", str(data / "valid.tsv"),
                         "--test_file", str(data / "test.tsv"),
                         "--out", str(tmp_path / "run")])
            assert code == 2
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_repeated_config_key_exits_2_before_loading(self, tmp_path, capsys):
        # The dataset files do not exist: the config is rejected before they load.
        absent = str(tmp_path / "absent.tsv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"train_file={absent}\nmax_epochs=3\nlr=0.1\nmax_epochs=4\n")
        code = main(["train", "--config", str(cfg), "--valid_file", absent,
                     "--test_file", absent, "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4: duplicate config key 'max_epochs'" in err and "absent.tsv" not in err
        assert not (tmp_path / "run").exists()

    def test_toy_run_writes_all_artifacts(self, tmp_path):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "config.resolved"):
            assert (run / name).exists(), name
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 3
        assert all("recall@20" in r for r in records)

    def test_each_record_is_on_disk_once_logged(self, tmp_path, monkeypatch):
        # a run killed after an evaluation keeps that evaluation's record
        data = generate(tmp_path)
        metrics = tmp_path / "run" / "metrics.jsonl"
        on_disk = []
        real = cli.run_training

        def read_after_each_record(dataset, cfg, log_fn):
            def log_then_read(record):
                log_fn(record)
                on_disk.append(metrics.read_text().splitlines())
            return real(dataset, cfg, log_fn=log_then_read)

        monkeypatch.setattr(cli, "run_training", read_after_each_record)
        lines = (train(tmp_path, data) / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert on_disk == [lines[:1], lines[:2], lines]

    def test_no_validation_saves_the_final_model_as_best(self, tmp_path, capsys):
        data = generate(tmp_path)
        run = train(tmp_path, data, extra=["--eval_every", "4"])  # beyond --max_epochs 3
        assert (run / "metrics.jsonl").read_bytes() == b""
        assert (run / "best.ckpt").read_bytes() == (run / "final.ckpt").read_bytes()
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == ("done: no validation ran; best.ckpt holds the final model (epoch 3); "
                        f"artifacts in {run}")

    def test_done_line_names_the_best_validation(self, tmp_path, capsys):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        best = max(json.loads(line)["recall@20"]
                   for line in (run / "metrics.jsonl").read_text().splitlines())
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"done: best recall@20={best:.4f} at epoch ")

    def test_same_seed_byte_identical(self, tmp_path):
        data = generate(tmp_path)
        r1 = train(tmp_path, data, "r1")
        r2 = train(tmp_path, data, "r2")
        for name in ("metrics.jsonl", "best.ckpt", "final.ckpt"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name

    def test_flag_overrides_beat_config_file(self, tmp_path):
        data = generate(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr=0.5\nmax_epochs=2\n")
        out = tmp_path / "cfgrun"
        code = main([
            "train", "--config", str(cfg),
            "--train_file", str(data / "train.tsv"),
            "--valid_file", str(data / "valid.tsv"),
            "--test_file", str(data / "test.tsv"),
            "--out", str(out),
            "--lr", "0.001", "--embed_dim", "4", "--batch_size", "64",
            "--n_negatives", "4",
        ])
        assert code == 0
        resolved = dict(line.split("=", 1)
                        for line in (out / "config.resolved").read_text().splitlines())
        assert float(resolved["lr"]) == 0.001   # flag wins
        assert int(resolved["max_epochs"]) == 2  # file beats default


@pytest.mark.parametrize("command,flag,kind", [
    ("train", "--out", "file"), ("generate", "--out", "file"),
    ("evaluate", "--checkpoint", "dir"), ("diagnose", "--checkpoint", "dir"),
    ("train", "--config", "dir"),
])
def test_path_of_the_wrong_kind_exits_2(tmp_path, capsys, command, flag, kind):
    data = generate(tmp_path)
    path = tmp_path / kind
    if kind == "file":
        path.write_text("")
    else:
        path.mkdir()
    files = ["--train_file", str(data / "train.tsv"), "--valid_file", str(data / "valid.tsv"),
             "--test_file", str(data / "test.tsv")]
    extra = {"train": files, "generate": GEN_ARGS, "evaluate": files,
             "diagnose": [*files, "--which", "alignuniform", "--out", str(tmp_path / "d.csv")]}
    capsys.readouterr()
    assert main([command, flag, str(path), *extra[command]]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", [["evaluate"], ["diagnose", "--which", "alignuniform"]])
def test_zero_norm_representation_exits_3(tmp_path, capsys, command):
    data = generate(tmp_path)
    run = train(tmp_path, data, extra=("--max_epochs", "2"))
    enc, hardness = load_checkpoint(run / "final.ckpt", load(data))
    enc.user_table.values[:] = 0.0
    save_checkpoint(run / "final.ckpt", enc, hardness)
    capsys.readouterr()
    out = tmp_path / "au.csv"
    code = main([*command, "--checkpoint", str(run / "final.ckpt"),
                 "--train_file", str(data / "train.tsv"),
                 "--valid_file", str(data / "valid.tsv"),
                 "--test_file", str(data / "test.tsv"),
                 *(["--out", str(out)] if command[0] == "diagnose" else [])])
    assert code == 3
    captured = capsys.readouterr()
    assert "numeric failure: representation norm below 1e-12" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("command", [["evaluate"], ["diagnose", "--which", "profile"]])
def test_non_finite_checkpoint_exits_2(tmp_path, capsys, command):
    data = generate(tmp_path)
    run = train(tmp_path, data, extra=("--max_epochs", "2"))
    enc, hardness = load_checkpoint(run / "final.ckpt", load(data))
    enc.item_table.values[2, 1] = np.nan
    save_checkpoint(run / "final.ckpt", enc, hardness)
    capsys.readouterr()
    out = tmp_path / "profile.csv"
    code = main([*command, "--checkpoint", str(run / "final.ckpt"),
                 "--train_file", str(data / "train.tsv"),
                 "--valid_file", str(data / "valid.tsv"),
                 "--test_file", str(data / "test.tsv"),
                 *(["--out", str(out)] if command[0] == "diagnose" else [])])
    assert code == 2
    captured = capsys.readouterr()
    assert "array item_values holds NaN or Inf" in captured.err
    assert not captured.out and not out.exists()


class TestEvaluate:
    def test_round_trip_reproduces_final_validation_metric(self, tmp_path, capsys):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
        final_recall = records[-1]["recall@20"]
        code = main(["evaluate", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--split", "valid"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recall@20"] == final_recall

    def test_perfect_toy_model_recall_at_1(self, tmp_path, capsys):
        # planted perfect instance: the single test item is exactly aligned
        (tmp_path / "train.tsv").write_text("0\t0\n1\t1\n")
        (tmp_path / "valid.tsv").write_text("")
        (tmp_path / "test.tsv").write_text("0\t2\n")
        enc = build_encoder("mf", 2, 3, 2, tau=1.0, seed=0)
        enc.user_table.values[0] = [1.0, 0.0]
        enc.item_table.values[0] = [0.0, 1.0]
        enc.item_table.values[1] = [0.3, 0.3]
        enc.item_table.values[2] = [2.0, 0.0]  # top-scoring candidate for user 0
        save_checkpoint(tmp_path / "perfect.ckpt", enc)
        code = main(["evaluate", "--checkpoint", str(tmp_path / "perfect.ckpt"),
                     "--train_file", str(tmp_path / "train.tsv"),
                     "--valid_file", str(tmp_path / "valid.tsv"),
                     "--test_file", str(tmp_path / "test.tsv"),
                     "--split", "test", "--k_eval", "1",
                     "--per_user_csv", str(tmp_path / "users.csv")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recall@1"] == 1.0
        assert (tmp_path / "users.csv").read_text() == "user,hr,recall,ndcg\n0,1.0,1.0,1.0\n"

    def test_per_user_csv_holds_tsv_user_ids(self, tmp_path, capsys):
        # users 70 and 30 are dense users 0 and 1; rows follow the dense ids
        (tmp_path / "train.tsv").write_text("70\t5\n30\t6\n")
        (tmp_path / "valid.tsv").write_text("")
        (tmp_path / "test.tsv").write_text("70\t7\n30\t8\n")
        enc = build_encoder("mf", 2, 4, 2, tau=1.0, seed=0)
        enc.user_table.values[:] = [[1.0, 0.0], [0.0, 1.0]]
        enc.item_table.values[:] = [[0.3, 0.3], [0.5, 0.5], [2.0, 0.0], [1.0, -1.0]]
        save_checkpoint(tmp_path / "model.ckpt", enc)
        code = main(["evaluate", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--train_file", str(tmp_path / "train.tsv"),
                     "--valid_file", str(tmp_path / "valid.tsv"),
                     "--test_file", str(tmp_path / "test.tsv"),
                     "--split", "test", "--k_eval", "1",
                     "--per_user_csv", str(tmp_path / "users.csv")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["recall@1"] == 0.5
        assert (tmp_path / "users.csv").read_text() == \
            "user,hr,recall,ndcg\n70,1.0,1.0,1.0\n30,0.0,0.0,0.0\n"

    def test_per_user_csv_equals_the_library_report(self, tmp_path, capsys):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        csv = tmp_path / "users.csv"
        assert main(["evaluate", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--per_user_csv", str(csv)]) == 0
        dataset = load(data)
        enc, _ = load_checkpoint(run / "final.ckpt", dataset)
        report = evaluate_split(enc, dataset, "test", 20)
        tsv_id = {dense: raw for raw, dense in dataset.user_remap.items()}
        assert tsv_id != {dense: dense for dense in tsv_id}  # the id columns differ
        header, rows = read_csv(csv)
        assert header == "user,hr,recall,ndcg"
        assert_rows_equal(rows, [(tsv_id[user], *report.per_user[user])
                                 for user in sorted(report.per_user)])

    def test_checkpoint_with_trailing_bytes_exits_2(self, tmp_path, capsys):
        (tmp_path / "train.tsv").write_text("0\t0\n1\t1\n")
        (tmp_path / "valid.tsv").write_text("")
        (tmp_path / "test.tsv").write_text("0\t2\n")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, build_encoder("mf", 2, 3, 2, tau=1.0, seed=0))
        ckpt.write_bytes(ckpt.read_bytes() + b"\0")
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--train_file", str(tmp_path / "train.tsv"),
                     "--valid_file", str(tmp_path / "valid.tsv"),
                     "--test_file", str(tmp_path / "test.tsv")])
        assert code == 2
        captured = capsys.readouterr()
        assert str(ckpt) in captured.err and not captured.out

    @pytest.mark.parametrize("tau", [b"true", b"false"])
    def test_checkpoint_with_boolean_tau_exits_2(self, tmp_path, capsys, tau):
        (tmp_path / "train.tsv").write_text("0\t0\n1\t1\n")
        (tmp_path / "valid.tsv").write_text("")
        (tmp_path / "test.tsv").write_text("0\t2\n")
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, build_encoder("mf", 2, 3, 2, tau=1.0, seed=0))
        raw = ckpt.read_bytes()
        assert raw.count(b'"tau":1.0}') == 1
        ckpt.write_bytes(raw.replace(b'"tau":1.0}', b'"tau":' + tau + b"}"))
        code = main(["evaluate", "--checkpoint", str(ckpt),
                     "--train_file", str(tmp_path / "train.tsv"),
                     "--valid_file", str(tmp_path / "valid.tsv"),
                     "--test_file", str(tmp_path / "test.tsv")])
        assert code == 2
        captured = capsys.readouterr()
        assert str(ckpt) in captured.err and not captured.out

    def test_train_split_is_not_a_choice(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--checkpoint", str(tmp_path / "any.ckpt"), "--split", "train"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--k_eval", "0"), ("--k_eval", "-3"),
                                            ("--per_user_csv", "missing/users.csv"),
                                            ("--per_user_csv", ".")])
    def test_bad_flag_exits_2_before_loading(self, tmp_path, capsys, flag, value):
        # The checkpoint and dataset files do not exist: a flag checked
        # before loading is the error reported.
        code = main(["evaluate", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--train_file", str(tmp_path / "none.tsv"),
                     "--valid_file", str(tmp_path / "none.tsv"),
                     "--test_file", str(tmp_path / "none.tsv"),
                     flag, str(tmp_path / value) if flag == "--per_user_csv" else value])
        assert code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and not captured.out

    def test_mismatched_dataset_exits_2(self, tmp_path):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        other = generate(tmp_path, "other",
                         extra=())
        # shrink the item space so dims disagree
        smaller = tmp_path / "smaller"
        code = main(["generate", "--out", str(smaller), "--n_users", "60",
                     "--n_items", "25", "--seed", "3"])
        assert code == 0
        code = main(["evaluate", "--checkpoint", str(run / "best.ckpt"),
                     "--train_file", str(smaller / "train.tsv"),
                     "--valid_file", str(smaller / "valid.tsv"),
                     "--test_file", str(smaller / "test.tsv")])
        assert code == 2


class TestDiagnose:
    def test_profile_on_untrained_hardness_is_uniform(self, tmp_path):
        data = generate(tmp_path)
        run = train(tmp_path, data, "noadv", extra=("--e_adv_max", "0"))
        out = tmp_path / "profile.csv"
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "profile", "--out", str(out),
                     "--bins", "4", "--n_negatives", "8"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin,mean_p,count"
        for line in lines[1:]:
            _, mean_p, count = line.split(",")
            if int(count):
                assert float(mean_p) == pytest.approx(1.0 / 8.0, abs=1e-12)

    @pytest.mark.parametrize("over", [1, 72])
    def test_more_bins_than_items_exits_2(self, tmp_path, capsys, over):
        data = generate(tmp_path)
        run = train(tmp_path, data, extra=("--max_epochs", "2"))
        n_items = load(data).n_items  # items seen in the TSV files: 28
        bins = n_items + over
        out = tmp_path / "profile.csv"
        capsys.readouterr()
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "profile", "--out", str(out), "--bins", str(bins)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"bins must be at most the {n_items} items, got {bins}" in captured.err
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("which", ["profile", "fnrate"])
    def test_checkpoint_without_hardness_exits_2(self, tmp_path, capsys, which):
        data = generate(tmp_path)
        run = train(tmp_path, data, extra=("--hardness_strategy", "none"))
        out = tmp_path / "out.csv"
        capsys.readouterr()
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", which, "--out", str(out),
                     "--planted_fn", str(data / "planted_fn.tsv")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"checkpoint has no hardness model; cannot compute {which}" in captured.err
        assert not captured.out and not out.exists()

    def test_fnrate_without_planted_file_exits_2(self, tmp_path, capsys):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "fnrate", "--out", str(tmp_path / "fn.csv")])
        assert code == 2
        assert "planted_fn" in capsys.readouterr().err

    def test_fnrate_with_empty_planted_file_exits_2(self, tmp_path, capsys):
        # a --gamma dataset plants no false negatives, so its planted_fn.tsv is empty
        data = generate(tmp_path, "gamma", extra=["--gamma", "4.0", "--n0", "10", "--groups", "5"])
        run = train(tmp_path, data)
        out = tmp_path / "fn.csv"
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "fnrate", "--out", str(out),
                     "--planted_fn", str(data / "planted_fn.tsv")])
        assert code == 2
        captured = capsys.readouterr()
        assert "lists no planted false negatives" in captured.err
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("which,flag", [("fnrate", "--n_resamples"),
                                            ("profile", "--n_negatives")])
    def test_zero_count_exits_2(self, tmp_path, capsys, which, flag):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", which, "--out", str(tmp_path / "out.csv"),
                     "--planted_fn", str(data / "planted_fn.tsv"), flag, "0"])
        assert code == 2
        assert flag[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("which,flag,value", [
        ("profile", "--bins", "1"), ("profile", "--bins", "-2"),
        ("profile", "--n_negatives", "0"), ("fnrate", "--n_negatives", "1"),
        ("fnrate", "--n_resamples", "0"), ("fnrate", "--n_resamples", "-1"),
        ("alignuniform", "--seed", "-1"), ("profile", "--seed", "4294967296"),
        ("alignuniform", "--out", "missing/out.csv"), ("alignuniform", "--out", ".")])
    def test_bad_flag_exits_2_before_loading(self, tmp_path, capsys, which, flag, value):
        # The checkpoint and dataset files do not exist: a flag checked
        # before loading is the error reported.
        code = main(["diagnose", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--train_file", str(tmp_path / "none.tsv"),
                     "--valid_file", str(tmp_path / "none.tsv"),
                     "--test_file", str(tmp_path / "none.tsv"),
                     "--which", which, "--planted_fn", str(tmp_path / "none.tsv"),
                     flag, str(tmp_path / value) if flag == "--out" else value])
        assert code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and not captured.out

    def test_fnrate_with_unknown_planted_pairs_exits_2(self, tmp_path, capsys):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        lines = (data / "planted_fn.tsv").read_text().splitlines()
        user, item = lines[0].split("\t")
        planted = tmp_path / "planted.tsv"  # one unknown user, one unknown item
        planted.write_text("\n".join([*lines, f"999999\t{item}", f"{user}\t999999"]) + "\n")
        out = tmp_path / "fn.csv"
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "fnrate", "--out", str(out), "--planted_fn", str(planted),
                     "--n_negatives", "8"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"2 of {len(lines) + 2} planted pairs name a user or item" in captured.err
        assert not captured.out and not out.exists()

    def test_fnrate_with_planted_file(self, tmp_path):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        out = tmp_path / "fn.csv"
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "fnrate", "--out", str(out),
                     "--planted_fn", str(data / "planted_fn.tsv"),
                     "--n_negatives", "8"])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "fn_rate,n_resamples"
        rate = float(row.split(",")[0])
        assert 0.0 <= rate <= 1.0

    @pytest.mark.parametrize("which", ["profile", "fnrate", "alignuniform"])
    def test_csv_equals_the_library_call(self, tmp_path, which):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        out = tmp_path / f"{which}.csv"
        assert main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", which, "--out", str(out), "--seed", "5",
                     "--planted_fn", str(data / "planted_fn.tsv"),
                     "--bins", "4", "--n_negatives", "8", "--n_resamples", "2"]) == 0
        dataset = load(data)
        enc, hardness = load_checkpoint(run / "final.ckpt", dataset)
        rng = substream(5, "diagnose", which)
        if which == "profile":
            expected = hardness_popularity_profile(hardness, enc, dataset, 4, 8, rng)
        elif which == "fnrate":
            planted = dataset.remap_pairs(read_pairs(data / "planted_fn.tsv"))
            expected = [(fn_identification_rate(hardness, planted, enc, dataset, 8, rng, 2), 2)]
        else:
            pairs = dataset.train_pairs
            pos = pairs[rng.choice(len(pairs), size=min(len(pairs), 2048), replace=False)]
            users = rng.choice(dataset.n_users, size=min(dataset.n_users, 256), replace=False)
            items = rng.choice(dataset.n_items, size=min(dataset.n_items, 256), replace=False)
            expected = [alignment_uniformity(enc, pos, users, items)]
        header, rows = read_csv(out)
        assert header == {"profile": "bin,mean_p,count", "fnrate": "fn_rate,n_resamples",
                          "alignuniform": "align,uniform"}[which]
        assert_rows_equal(rows, expected)

    def test_alignuniform_single_data_row(self, tmp_path):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        out = tmp_path / "au.csv"
        code = main(["diagnose", "--checkpoint", str(run / "final.ckpt"),
                     "--train_file", str(data / "train.tsv"),
                     "--valid_file", str(data / "valid.tsv"),
                     "--test_file", str(data / "test.tsv"),
                     "--which", "alignuniform", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "align,uniform"
        assert len(lines) == 2


class TestGraphBackboneMlpHardness:
    def test_adversarial_run_is_byte_identical_and_usable(self, tmp_path):
        data = generate(tmp_path)
        extra = ("--backbone", "lightgcn", "--hardness_kind", "mlp",
                 "--hardness_strategy", "adv", "--hardness_dim", "3")
        r1 = train(tmp_path, data, "r1", extra=extra)
        # the resolved-config snapshot plus its seed replay the run bit for bit
        r2 = tmp_path / "r2"
        assert main(["train", "--config", str(r1 / "config.resolved"), "--out", str(r2)]) == 0
        for name in ("metrics.jsonl", "best.ckpt", "final.ckpt"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name
        _, hardness = load_checkpoint(r1 / "final.ckpt", load_interactions(
            data / "train.tsv", data / "valid.tsv", data / "test.tsv"))
        assert hardness.kind == "mlp"
        assert {name: arr.shape for name, arr in hardness.param_arrays().items()} == {
            "w_user": (3, 8), "b_user": (3,), "w_item": (3, 8), "b_item": (3,)}
        files = ["--train_file", str(data / "train.tsv"),
                 "--valid_file", str(data / "valid.tsv"),
                 "--test_file", str(data / "test.tsv")]
        assert main(["evaluate", "--checkpoint", str(r1 / "final.ckpt"), *files]) == 0
        assert main(["diagnose", "--checkpoint", str(r1 / "final.ckpt"), *files,
                     "--which", "profile", "--out", str(tmp_path / "profile.csv"),
                     "--bins", "4", "--n_negatives", "8"]) == 0
