"""Training and diagnostics hashes for the engine's backbone x strategy x
hardness configurations: per backbone and trainer.STRATEGIES, one row per
loss.HARDNESS_MODELS kind for the strategies in trainer.HARDNESS_STRATEGIES,
and one row with hardness "-" (trained with TrainConfig's default kind) for
those that build no hardness model; 12 rows, in that nesting order.

Trains the acceptance configuration of criteria 10/11 (synthetic dataset and
training config of tests/test_acceptance.py, seed 0, 30 epochs) once per
configuration and prints two hashes for each:

- train: the history JSON, then the bytes save_checkpoint writes for the
  final model and, if a validation ran, for the best snapshot, saved to a
  temporary directory. A checkpoint holds every encoder table and hardness
  parameter array as little-endian float64, so a change to any of them
  moves this hash;
- diag: test HR/Recall/NDCG@20 of the final encoder, with every user's
  triple, so that a one-ulp change for one user shows; every user's triple
  at k = 1 and at k = n_items, the two ends of the cutoff; the false-negative
  identification rate (n_resamples=1) and a 10-bin hardness-popularity
  profile; the last two only where the strategy trains a hardness model.

One more row, ingest, hashes the same dataset written with write_pairs
under seeded distinct 9-digit external ids and read back: the three splits
and both remap dicts (in order) from load_interactions, and the planted false
negatives from read_pairs + remap_pairs.

One more row, generate, hashes what generate_synthetic returns over a fixed
grid of specs: the 1 x 1, toy (below) and acceptance shapes, each at
relevance_quantile 1e-17, 0.02, 0.5 and 0.999 and exposure_bias_strength 0
and 2. Per spec it hashes the three splits, the planted false negatives and
the per-item exposure weights, or the message of the DegenerateSpec the spec
raises (1 x 1 and 1e-17 have no relevant pair).

One more row, cli, runs the commands on the toy dataset of tests/test_cli.py in
a temporary directory: generate in both modes, train, evaluate with
--per_user_csv, and diagnose profile, fnrate and alignuniform. Its train
column hashes evaluate's standard output and every file written, except
config.resolved, which names the temporary directory. Its diag column hashes
the same for evaluate and the three diagnose kinds run on a checkpoint saved
from seeded parameters (FIXED_*), not from train's output, so it shows
whether the scoring commands' outputs changed even where training bytes did.

Two source trees whose tables are identical generate, ingest, train, diagnose
and write their artifacts, checkpoints included, byte for byte alike on these
configurations. Compare tables printed by one version of this tool: another
version may hash other bytes. The table goes to standard output and the
seconds per configuration to standard error. Run from the repository root:

    PYTHONPATH=src python tools/config_hashes.py
    PYTHONPATH=path/to/other/src python tools/config_hashes.py   # to compare
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from advrec.checkpoint import save_checkpoint
from advrec.cli import main as advrec_main
from advrec.dataio import (SPLITS, SyntheticSpec, generate_synthetic, load_interactions,
                           read_pairs, write_pairs)
from advrec.encoder import LIGHTGCN, MF, build_encoder
from advrec.errors import DegenerateSpec
from advrec.evaluation import evaluate_split, fn_identification_rate, hardness_popularity_profile
from advrec.loss import HARDNESS_MODELS
from advrec.rng import substream
from advrec.trainer import HARDNESS_STRATEGIES, STRATEGIES, TrainConfig, run_training

SEED = 0
SPEC = dict(n_users=2000, n_items=1000, latent_dim=32, exposure_bias_strength=1.0,
            train_fraction=0.6, fn_plant_rate=0.2, relevance_quantile=0.02)
CFG = dict(lr=0.05, lr_adv=0.01, batch_size=1024, n_negatives=16, k_weight=16.0, tau=0.2,
           e_adv_max=6, t_adv_interval=3, max_epochs=30, eval_every=10, patience=50,
           embed_dim=32, k_eval=20)
# encoder.BACKBONES spelled out, so that the tool also runs on source trees
# that predate that name; tests/test_tools.py checks the two agree.
BACKBONES = (MF, LIGHTGCN)
HARDNESS = tuple(HARDNESS_MODELS)
PROFILE_BINS = 10
# The toy dataset and training run of tests/test_cli.py, for the cli and generate rows.
TOY_SPEC = dict(n_users=60, n_items=40, latent_dim=6, relevance_quantile=0.08,
                train_fraction=0.55, fn_plant_rate=0.3, exposure_bias_strength=1.0, seed=3)
CLI_GENERATE = [arg for key, value in TOY_SPEC.items() for arg in (f"--{key}", str(value))]
# The generate row's grid, per shape: relevance quantiles x exposure strengths.
GENERATE_QUANTILES = (1e-17, 0.02, 0.5, 0.999)
GENERATE_STRENGTHS = (0.0, 2.0)
CLI_GAMMA = ["--gamma", "4.0", "--n0", "10", "--groups", "5"]
CLI_TRAIN = ["--embed_dim", "8", "--batch_size", "64", "--n_negatives", "4",
             "--k_weight", "4", "--tau", "0.2", "--lr", "0.05", "--lr_adv", "0.01",
             "--max_epochs", "3", "--t_adv_interval", "1", "--e_adv_max", "2", "--seed", "1"]
# The cli row's fixed checkpoint: an MF encoder and embed hardness of this
# width, every parameter drawn from uniform(-FIXED_SCALE, FIXED_SCALE).
FIXED_DIM, FIXED_TAU, FIXED_SCALE = 8, 0.2, 0.5


def _digest(h) -> str:
    return h.hexdigest()[:16]


def _add_checkpoint(h, path: Path, enc, hardness) -> None:
    save_checkpoint(path, enc, hardness)
    h.update(path.read_bytes())


def config_hashes(data, backbone: str, strategy: str,
                  hardness: str | None = None) -> tuple[str, str]:
    """(train, diag) of one configuration; hardness None trains TrainConfig's
    default kind."""
    kind = {} if hardness is None else {"hardness_kind": hardness}
    cfg = TrainConfig(seed=SEED, backbone=backbone, hardness_strategy=strategy, **kind, **CFG)
    state = run_training(data.dataset, cfg).state

    train = hashlib.sha256(json.dumps(state.history, sort_keys=True).encode())
    with tempfile.TemporaryDirectory() as tmp:
        _add_checkpoint(train, Path(tmp) / "final.ckpt", state.encoder, state.hardness)
        if state.best is not None:  # None when no validation ran
            _add_checkpoint(train, Path(tmp) / "best.ckpt", *state.best)

    report = evaluate_split(state.encoder, data.dataset, "test", cfg.k_eval)
    diag = [report.hr, report.recall, report.ndcg, sorted(report.per_user.items())]
    for k in (1, data.dataset.n_items):
        diag.append(sorted(evaluate_split(state.encoder, data.dataset, "test", k).per_user.items()))
    if state.hardness is not None:
        diag.append(fn_identification_rate(
            state.hardness, data.planted_fn, state.encoder, data.dataset,
            cfg.n_negatives, substream(SEED, "fn-rate-eval"), n_resamples=1))
        diag.append(hardness_popularity_profile(
            state.hardness, state.encoder, data.dataset, PROFILE_BINS, cfg.n_negatives,
            substream(SEED, "profile")))
    return _digest(train), _digest(hashlib.sha256(repr(diag).encode()))


def ingest_hash(data) -> str:
    rng = substream(SEED, "ingest-ids")
    user_ids = 10**8 + rng.choice(9 * 10**8, size=data.dataset.n_users, replace=False)
    item_ids = 10**8 + rng.choice(9 * 10**8, size=data.dataset.n_items, replace=False)
    arrays = {name: data.dataset.pairs(name) for name in SPLITS}
    arrays["planted_fn"] = data.planted_fn
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp) / f"{name}.tsv" for name in arrays}
        for name, pairs in arrays.items():
            write_pairs(files[name], np.stack([user_ids[pairs[:, 0]], item_ids[pairs[:, 1]]], 1))
        dataset = load_interactions(*(files[name] for name in SPLITS))
        planted = dataset.remap_pairs(read_pairs(files["planted_fn"]))
    h = hashlib.sha256()
    for name in SPLITS:
        h.update(dataset.pairs(name).tobytes())
    h.update(repr(list(dataset.user_remap.items())).encode())
    h.update(repr(list(dataset.item_remap.items())).encode())
    h.update(planted.tobytes())
    return _digest(h)


def generate_hash() -> str:
    h = hashlib.sha256()
    shapes = (dict(n_users=1, n_items=1), TOY_SPEC, dict(SPEC, seed=SEED))
    for shape, quantile, strength in itertools.product(shapes, GENERATE_QUANTILES,
                                                       GENERATE_STRENGTHS):
        spec = SyntheticSpec(**dict(shape, relevance_quantile=quantile,
                                    exposure_bias_strength=strength))
        try:
            data = generate_synthetic(spec)
        except DegenerateSpec as exc:
            h.update(str(exc).encode())
            continue
        for name in SPLITS:
            h.update(data.dataset.pairs(name).tobytes())
        h.update(data.planted_fn.tobytes())
        h.update(data.exposure_weight.tobytes())
    return _digest(h)


def _advrec(commands) -> str:
    """Runs each advrec command line in turn; returns their standard output."""
    stdout = io.StringIO()
    for argv in commands:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = advrec_main(argv)
        if code != 0:
            raise SystemExit(f"advrec {argv[0]} exited {code}")
    return stdout.getvalue()


def _split_flags(data: Path) -> list[str]:
    return [arg for name in SPLITS for arg in (f"--{name}_file", str(data / f"{name}.tsv"))]


def _scoring_commands(ckpt: Path, data: Path, out: Path) -> list[list[str]]:
    """evaluate with --per_user_csv and the three diagnose kinds of ckpt on
    data, writing into out."""
    files = _split_flags(data)
    return [
        ["evaluate", "--checkpoint", str(ckpt), *files, "--per_user_csv", str(out / "users.csv")],
        *(["diagnose", "--checkpoint", str(ckpt), *files, "--which", which,
           "--out", str(out / f"{which}.csv"), "--planted_fn", str(data / "planted_fn.tsv"),
           "--bins", "4", "--n_negatives", "8"]
          for which in ("profile", "fnrate", "alignuniform")),
    ]


def _outputs_hash(stdout: str, root: Path) -> str:
    """stdout and every file under root but config.resolved, by relative path."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "config.resolved":
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return _digest(h)


def _save_fixed_checkpoint(path: Path, data: Path) -> None:
    """An MF encoder and embed hardness model sized to data, with seeded
    parameters, saved to path."""
    dataset = load_interactions(*(data / f"{name}.tsv" for name in SPLITS))
    rng = substream(SEED, "cli-fixed")

    def draw(rows: int) -> np.ndarray:
        return rng.uniform(-FIXED_SCALE, FIXED_SCALE, size=(rows, FIXED_DIM))

    enc = build_encoder(MF, dataset.n_users, dataset.n_items, FIXED_DIM, FIXED_TAU, SEED)
    enc.user_table.values[:] = draw(dataset.n_users)
    enc.item_table.values[:] = draw(dataset.n_items)
    hardness = HARDNESS_MODELS["embed"].from_arrays(adv_user=draw(dataset.n_users),
                                                    adv_item=draw(dataset.n_items))
    save_checkpoint(path, enc, hardness)


def cli_hash() -> tuple[str, str]:
    """(every command's outputs, the scoring commands' outputs on the fixed
    checkpoint)."""
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as fixed:
        tmp, fixed = Path(tmp), Path(fixed)
        data = tmp / "data"
        stdout = _advrec([
            ["generate", "--out", str(data), *CLI_GENERATE],
            ["generate", "--out", str(tmp / "gamma"), *CLI_GENERATE, *CLI_GAMMA],
            ["train", *_split_flags(data), "--out", str(tmp / "run"), *CLI_TRAIN],
            *_scoring_commands(tmp / "run" / "final.ckpt", data, tmp),
        ])
        run_hash = _outputs_hash(stdout, tmp)
        ckpt = fixed / "fixed.ckpt"
        _save_fixed_checkpoint(ckpt, data)
        return run_hash, _outputs_hash(_advrec(_scoring_commands(ckpt, data, fixed)), fixed)


def main() -> None:
    data = generate_synthetic(SyntheticSpec(seed=SEED, **SPEC))
    print("| backbone | strategy | hardness | train | diag |")
    print("| --- | --- | --- | --- | --- |")
    print(f"| ingest | - | - | {ingest_hash(data)} | - |", flush=True)
    print("| cli | - | - | {} | {} |".format(*cli_hash()), flush=True)
    print(f"| generate | - | - | {generate_hash()} | - |", flush=True)
    for backbone, strategy in itertools.product(BACKBONES, STRATEGIES):
        for hardness in HARDNESS if strategy in HARDNESS_STRATEGIES else (None,):
            t0 = time.perf_counter()
            train, diag = config_hashes(data, backbone, strategy, hardness)
            name = f"{backbone} | {strategy} | {hardness or '-'}"
            print(f"| {name} | {train} | {diag} |", flush=True)
            print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
