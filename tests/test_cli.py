"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from advrec.checkpoint import load_checkpoint, save_checkpoint
from advrec.cli import main
from advrec.dataio import gamma_quotas, load_interactions
from advrec.encoder import build_encoder


GEN_ARGS = ["--n_users", "60", "--n_items", "40", "--latent_dim", "6",
            "--relevance_quantile", "0.08", "--train_fraction", "0.55",
            "--fn_plant_rate", "0.3", "--exposure_bias_strength", "1.0",
            "--seed", "3"]


def generate(tmp_path, name="data", extra=()):
    out = tmp_path / name
    code = main(["generate", "--out", str(out), *GEN_ARGS, *extra])
    assert code == 0
    return out


def train(tmp_path, data, name="run", extra=()):
    out = tmp_path / name
    code = main([
        "train",
        "--train_file", str(data / "train.tsv"),
        "--valid_file", str(data / "valid.tsv"),
        "--test_file", str(data / "test.tsv"),
        "--out", str(out),
        "--embed_dim", "8", "--batch_size", "64", "--n_negatives", "4",
        "--k_weight", "4", "--tau", "0.2", "--lr", "0.05", "--lr_adv", "0.01",
        "--max_epochs", "3", "--t_adv_interval", "1", "--e_adv_max", "2",
        "--seed", "1", *extra,
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
        out = tmp_path / "gamma"
        code = main(["generate", "--out", str(out), *GEN_ARGS,
                     "--gamma", "4.0", "--n0", "10"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        expected = gamma_quotas(10, 4.0, 50)
        np.testing.assert_array_equal(manifest["quotas"], expected)
        assert manifest["mode"] == "gamma"

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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_users=40\nn_item=30\n")
        code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "n_item" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


class TestTrain:
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
        ("--k_weight", "1e400"), ("--lr", "nan"),
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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_gcn_layers_with_mf_exits_2_before_loading(self, tmp_path, capsys, source):
        # gcn_layers is read only by the graph backbone; MF would ignore it
        absent = str(tmp_path / "absent.tsv")
        given = ["--backbone", "mf", "--gcn_layers", "5"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("backbone=mf\ngcn_layers=2\n")
            given = ["--config", str(cfg)]
        code = main(["train", "--train_file", absent, "--valid_file", absent,
                     "--test_file", absent, "--out", str(tmp_path / "run"), *given])
        assert code == 2
        err = capsys.readouterr().err
        assert "gcn_layers" in err and "absent.tsv" not in err
        assert not (tmp_path / "run").exists()

    def test_mf_snapshot_omits_gcn_layers_and_replays(self, tmp_path):
        data = generate(tmp_path)
        r1 = train(tmp_path, data, "r1")
        assert "gcn_layers" not in (r1 / "config.resolved").read_text()
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

    def test_toy_run_writes_all_artifacts(self, tmp_path):
        data = generate(tmp_path)
        run = train(tmp_path, data)
        for name in ("metrics.jsonl", "best.ckpt", "final.ckpt", "config.resolved"):
            assert (run / name).exists(), name
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 3
        assert all("recall@20" in r for r in records)

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
