"""Command-line entry point: train, evaluate, generate, diagnose.

Configuration is a flat key=value file; every key is also exposed as a long
flag of the same name (flags beat file values, file values beat defaults),
and a file key that names no flag is rejected. Each run directory receives a
resolved-config snapshot so that the snapshot plus the seed reproduce the run
bit-for-bit.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure. Progress
goes to stderr; stdout carries machine-readable JSON only for `evaluate`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .dataio import (
    SyntheticSpec,
    gamma_quotas,
    gamma_split,
    generate_synthetic,
    load_interactions,
    read_pairs,
    write_pairs,
    write_synthetic,
)
from .errors import EngineError, NonFinite, NonFiniteGradient
from .evaluation import (
    alignment_uniformity,
    evaluate_split,
    fn_identification_rate,
    hardness_popularity_profile,
)
from .rng import substream
from .trainer import TrainConfig, run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_kv_config(path, cls, extra=()) -> dict[str, str]:
    """Flat key=value file; blank lines and '#' comments ignored. A key must
    be a field of the dataclass cls or one of extra."""
    allowed = {f.name for f in dataclasses.fields(cls)} | set(extra)
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise EngineError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in allowed:
                raise EngineError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _coerce(field_type, raw: str):
    if field_type is int:
        return int(raw)
    if field_type is float:
        return float(raw)
    return raw


def _resolve_dataclass(cls, file_cfg: dict, flag_ns):
    """Defaults <- config file <- explicit flags, typed by the dataclass."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name in file_cfg:
            values[f.name] = _coerce(type(f.default), file_cfg[f.name])
        flag = getattr(flag_ns, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return cls(**values)


def _add_dataclass_flags(parser, cls):
    for f in dataclasses.fields(cls):
        parser.add_argument(f"--{f.name}", type=type(f.default), default=None,
                            help=f"{f.name} (default {f.default})")


def _write_snapshot(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(values):
            fh.write(f"{key}={values[key]}\n")


def _require_files(*paths) -> None:
    for p in paths:
        if p is None:
            raise EngineError("missing required dataset path")
        if not Path(p).is_file():
            raise EngineError(f"input file not found: {p}")


def _require_out_file(flag: str, path: Path) -> None:
    if path.is_dir() or not path.parent.is_dir():
        raise EngineError(f"{flag} {path} is not a file path in an existing directory")


def _load_dataset(ns):
    _require_files(ns.train_file, ns.valid_file, ns.test_file)
    return load_interactions(ns.train_file, ns.valid_file, ns.test_file)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(ns) -> int:
    paths = ("train_file", "valid_file", "test_file", "out")
    file_cfg = load_kv_config(ns.config, TrainConfig, paths) if ns.config else {}
    for key in paths:
        if getattr(ns, key) is None and key in file_cfg:
            setattr(ns, key, file_cfg[key])
    cfg = _resolve_dataclass(TrainConfig, file_cfg, ns)
    if cfg.backbone == "mf" and (ns.gcn_layers is not None or "gcn_layers" in file_cfg):
        raise EngineError("gcn_layers applies only to backbone lightgcn")
    dataset = _load_dataset(ns)
    out = Path(ns.out or "run")
    out.mkdir(parents=True, exist_ok=True)

    snapshot = dataclasses.asdict(cfg)
    if cfg.backbone == "mf":
        del snapshot["gcn_layers"]  # so that the snapshot replays
    snapshot.update(train_file=ns.train_file, valid_file=ns.valid_file,
                    test_file=ns.test_file, out=str(out))
    _write_snapshot(out / "config.resolved", snapshot)

    _log(f"training on {dataset.n_users} users x {dataset.n_items} items "
         f"({len(dataset.train_pairs)} train pairs), strategy={cfg.hardness_strategy}")
    metrics_path = out / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as fh:
        def log_record(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            _log(f"epoch {record['epoch']}: recall@{cfg.k_eval}="
                 f"{record[f'recall@{cfg.k_eval}']:.4f} loss={record['loss']:.4f}")
        result = run_training(dataset, cfg, log_fn=log_record)

    best_enc = result.state.best_encoder or result.state.encoder
    best_hard = result.state.best_hardness if result.state.best_encoder else result.state.hardness
    ckpt.save_checkpoint(out / "best.ckpt", best_enc, best_hard)
    ckpt.save_checkpoint(out / "final.ckpt", result.state.encoder, result.state.hardness)
    _log(f"done: best recall@{cfg.k_eval}={result.best_metric:.4f} "
         f"at epoch {result.best_epoch}; artifacts in {out}")
    return EXIT_OK


def cmd_evaluate(ns) -> int:
    if ns.k_eval < 1:
        raise EngineError(f"--k_eval must be >= 1, got {ns.k_eval}")
    csv = Path(ns.per_user_csv) if ns.per_user_csv else None
    if csv:
        _require_out_file("--per_user_csv", csv)
    dataset = _load_dataset(ns)
    enc, _ = ckpt.load_checkpoint(ns.checkpoint, dataset)
    report = evaluate_split(enc, dataset, ns.split, ns.k_eval)
    payload = {
        "split": ns.split,
        f"hr@{ns.k_eval}": report.hr,
        f"recall@{ns.k_eval}": report.recall,
        f"ndcg@{ns.k_eval}": report.ndcg,
        "n_users": report.n_users,
    }
    if csv:
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write("user,hr,recall,ndcg\n")
            for user in sorted(report.per_user):
                hr, recall, ndcg = report.per_user[user]
                fh.write(f"{user},{hr!r},{recall!r},{ndcg!r}\n")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_generate(ns) -> int:
    file_cfg = load_kv_config(ns.config, SyntheticSpec) if ns.config else {}
    spec = _resolve_dataclass(SyntheticSpec, file_cfg, ns)
    if ns.gamma is not None:
        gamma_quotas(ns.n0, ns.gamma, ns.groups)  # rejects bad split flags up front
    result = generate_synthetic(spec)
    out = Path(ns.out or "dataset")
    out.mkdir(parents=True, exist_ok=True)

    manifest = {"mode": "biased-exposure", "spec": dataclasses.asdict(spec)}
    if ns.gamma is not None:
        # Re-split the observed pool with popularity-quota test construction.
        pool = np.concatenate([result.dataset.train_pairs, result.dataset.valid_pairs])
        split = gamma_split(pool, spec.n_items, ns.gamma, ns.n0,
                            substream(spec.seed, "gamma-split"), groups=ns.groups)
        write_pairs(out / "train.tsv", split.train_pairs)
        write_pairs(out / "valid.tsv", split.valid_pairs)
        write_pairs(out / "test.tsv", split.test_pairs)
        write_pairs(out / "planted_fn.tsv", np.zeros((0, 2), dtype=np.int64))
        manifest = {
            "mode": "gamma",
            "gamma": ns.gamma,
            "groups": ns.groups,
            "n0": ns.n0,
            "quotas": split.quotas.tolist(),
            "drawn": split.drawn.tolist(),
            "spec": dataclasses.asdict(spec),
        }
    else:
        write_synthetic(out, result)

    _write_snapshot(out / "spec.resolved", dataclasses.asdict(spec))
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _log(f"dataset written to {out}")
    return EXIT_OK


def cmd_diagnose(ns) -> int:
    # fnrate's context is the planted item and n_negatives - 1 draws.
    for flag, value, low in (("--bins", ns.bins, 2), ("--n_resamples", ns.n_resamples, 1),
                             ("--n_negatives", ns.n_negatives, 2 if ns.which == "fnrate" else 1)):
        if value < low:
            raise EngineError(f"{flag} must be >= {low}, got {value}")
    out = Path(ns.out or "diagnostics.csv")
    _require_out_file("--out", out)
    dataset = _load_dataset(ns)
    enc, hardness = ckpt.load_checkpoint(ns.checkpoint, dataset)
    rng = substream(ns.seed, "diagnose", ns.which)

    if ns.which == "profile":
        if hardness is None:
            raise EngineError("checkpoint has no hardness model; cannot profile")
        rows = hardness_popularity_profile(hardness, enc, dataset, ns.bins,
                                           ns.n_negatives, rng)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("bin,mean_p,count\n")
            for b, mean_p, count in rows:
                fh.write(f"{b},{mean_p!r},{count}\n")
    elif ns.which == "fnrate":
        if hardness is None:
            raise EngineError("checkpoint has no hardness model; cannot compute fn rate")
        if ns.planted_fn is None or not Path(ns.planted_fn).is_file():
            raise EngineError("fnrate needs --planted_fn pointing at planted_fn.tsv")
        planted = dataset.remap_pairs(read_pairs(ns.planted_fn))
        if planted.size == 0:
            raise EngineError(f"{ns.planted_fn} lists no planted false negatives "
                              "(fnrate only applies to synthetic datasets)")
        rate = fn_identification_rate(hardness, planted, enc, dataset,
                                      ns.n_negatives, rng, ns.n_resamples)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("fn_rate,n_resamples\n")
            fh.write(f"{rate!r},{ns.n_resamples}\n")
    elif ns.which == "alignuniform":
        pairs = dataset.train_pairs
        take = min(len(pairs), 2048)
        pos = pairs[rng.choice(len(pairs), size=take, replace=False)]
        users = rng.choice(dataset.n_users, size=min(dataset.n_users, 256), replace=False)
        items = rng.choice(dataset.n_items, size=min(dataset.n_items, 256), replace=False)
        entities = [("user", int(u)) for u in users] + [("item", int(i)) for i in items]
        align, uniform = alignment_uniformity(enc, pos, entities)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("align,uniform\n")
            fh.write(f"{align!r},{uniform!r}\n")
    else:
        raise EngineError(f"unknown diagnostic {ns.which!r}")
    _log(f"diagnostic written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advrec",
        description="Adversarial contrastive training engine for implicit-feedback Top-K recommendation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p):
        p.add_argument("--train_file", default=None)
        p.add_argument("--valid_file", default=None)
        p.add_argument("--test_file", default=None)

    p_train = sub.add_parser("train", help="run the alternating min-max training loop")
    p_train.add_argument("--config", default=None, help="flat key=value config file")
    add_dataset_flags(p_train)
    p_train.add_argument("--out", default=None, help="output directory")
    _add_dataclass_flags(p_train, TrainConfig)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on one split")
    p_eval.add_argument("--checkpoint", required=True)
    add_dataset_flags(p_eval)
    p_eval.add_argument("--split", default="test", choices=["valid", "test"])
    p_eval.add_argument("--k_eval", type=int, default=20)
    p_eval.add_argument("--per_user_csv", default=None,
                        help="also dump per-user metrics to this CSV")
    p_eval.set_defaults(func=cmd_evaluate)

    p_gen = sub.add_parser("generate", help="write a synthetic biased-exposure dataset")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--out", default=None)
    _add_dataclass_flags(p_gen, SyntheticSpec)
    p_gen.add_argument("--gamma", type=float, default=None,
                       help="build the test split by popularity-group quotas instead of planted FNs")
    p_gen.add_argument("--groups", type=int, default=50)
    p_gen.add_argument("--n0", type=int, default=100)
    p_gen.set_defaults(func=cmd_generate)

    p_diag = sub.add_parser("diagnose", help="write a diagnostic CSV for a checkpoint")
    p_diag.add_argument("--checkpoint", required=True)
    add_dataset_flags(p_diag)
    p_diag.add_argument("--which", required=True, choices=["profile", "fnrate", "alignuniform"])
    p_diag.add_argument("--out", default=None)
    p_diag.add_argument("--planted_fn", default=None)
    p_diag.add_argument("--bins", type=int, default=10)
    p_diag.add_argument("--n_negatives", type=int, default=32)
    p_diag.add_argument("--n_resamples", type=int, default=3)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (NonFinite, NonFiniteGradient) as exc:
        _log(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (EngineError, FileNotFoundError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
