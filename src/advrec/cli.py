"""Command-line entry point: train, evaluate, generate, diagnose.

Configuration for train and generate is a flat key=value file whose keys
are the command's config fields and path flags (train's *_file and out,
generate's out); flags beat file values, file values beat defaults. Any
other key, generate's gamma, groups and n0 among them, is rejected. Each
run directory receives a resolved-config snapshot so that the snapshot plus
the seed reproduce the run bit-for-bit.

Exit codes: 0 success, 2 usage, config or path error, 3 numeric failure. Progress
goes to stderr; stdout carries machine-readable JSON only for `evaluate`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .dataio import (
    SPLITS,
    SyntheticSpec,
    gamma_quotas,
    gamma_resplit,
    generate_synthetic,
    load_interactions,
    read_pairs,
    write_dataset,
)
from .encoder import LIGHTGCN
from .errors import EngineError, NonFinite, NonFiniteGradient, ZeroNormError
from .evaluation import (
    alignment_uniformity,
    evaluate_split,
    fn_identification_rate,
    hardness_popularity_profile,
)
from .rng import check_seed, substream
from .trainer import HARDNESS_STRATEGIES, TrainConfig, run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Train options read only while a config field takes one of some values; elsewhere
# they are rejected when given and left out of config.resolved, so that it replays.
APPLIES_WHEN = {"gcn_layers": ("backbone", (LIGHTGCN,)),
                **{name: ("hardness_strategy", HARDNESS_STRATEGIES)
                   for name in ("hardness_kind", "hardness_dim", "lr_adv", "e_adv_max",
                                "t_adv_interval")}}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_kv_config(path, cls, extra=()) -> dict[str, str]:
    """Flat key=value file; blank lines and '#' comments ignored. A key must
    be a field of the dataclass cls or one of extra, and appear once."""
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
            if key in values:
                raise EngineError(f"{path}:{line_no}: duplicate config key {key!r}")
            values[key] = value.strip()
    return values


def _file_config(ns, cls, paths) -> dict[str, str]:
    """The --config file's values; each path flag left unset takes the file's."""
    file_cfg = load_kv_config(ns.config, cls, paths) if ns.config else {}
    for key in paths:
        if getattr(ns, key) is None and key in file_cfg:
            setattr(ns, key, file_cfg[key])
    return file_cfg


def _resolve_dataclass(cls, file_cfg: dict, flag_ns):
    """Defaults <- config file <- explicit flags, each value parsed by the
    type of its field's default (int, float or str), as its flag is."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name in file_cfg:
            values[f.name] = type(f.default)(file_cfg[f.name])
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


def _write_csv(path, header: str, rows) -> None:
    """One header line, then one line per row with each field as its repr.
    Fields must be Python ints and floats (.tolist(), float()): under numpy 2
    the repr of np.float64(0.5) is 'np.float64(0.5)', not '0.5'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _require_files(*paths) -> None:
    for p in paths:
        if p is None:
            raise EngineError("missing required dataset path")
        if not Path(p).is_file():
            raise EngineError(f"input file not found: {p}")


def _require_out_file(flag: str, path: Path) -> None:
    if path.is_dir() or not path.parent.is_dir():
        raise EngineError(f"{flag} {path} is not a file path in an existing directory")


def _require_out_dir(flag: str, path: Path) -> None:
    # the nearest existing ancestor (or path itself) is where mkdir would fail
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise EngineError(f"{flag} {path} is not a directory path: {existing} is not a directory")


def _load_dataset(ns):
    _require_files(ns.train_file, ns.valid_file, ns.test_file)
    return load_interactions(ns.train_file, ns.valid_file, ns.test_file)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(ns) -> int:
    file_cfg = _file_config(ns, TrainConfig, ("train_file", "valid_file", "test_file", "out"))
    cfg = _resolve_dataclass(TrainConfig, file_cfg, ns)
    idle = [name for name, (key, values) in APPLIES_WHEN.items() if getattr(cfg, key) not in values]
    for name in idle:
        if getattr(ns, name) is not None or name in file_cfg:
            key, values = APPLIES_WHEN[name]
            raise EngineError(f"{name} applies only to {key} {' or '.join(values)}")
    out = Path(ns.out or "run")
    _require_out_dir("--out", out)
    dataset = _load_dataset(ns)
    out.mkdir(parents=True, exist_ok=True)

    snapshot = {k: v for k, v in dataclasses.asdict(cfg).items() if k not in idle}
    snapshot.update(train_file=ns.train_file, valid_file=ns.valid_file,
                    test_file=ns.test_file, out=str(out))
    _write_snapshot(out / "config.resolved", snapshot)

    _log(f"training on {dataset.n_users} users x {dataset.n_items} items "
         f"({len(dataset.train_pairs)} train pairs), strategy={cfg.hardness_strategy}")
    metrics_path = out / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as fh:
        def log_record(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()  # on disk once logged, so a killed run keeps its records
            _log(f"epoch {record['epoch']}: recall@{cfg.k_eval}="
                 f"{record[f'recall@{cfg.k_eval}']:.4f} loss={record['loss']:.4f}")
        result = run_training(dataset, cfg, log_fn=log_record)

    ckpt.save_checkpoint(out / "best.ckpt", *result.best)
    ckpt.save_checkpoint(out / "final.ckpt", result.state.encoder, result.state.hardness)
    state = result.state
    if state.best is None:
        _log(f"done: no validation ran; best.ckpt holds the final model (epoch {state.epoch}); "
             f"artifacts in {out}")
    else:
        _log(f"done: best recall@{cfg.k_eval}={state.best_metric:.4f} "
             f"at epoch {state.best_epoch}; artifacts in {out}")
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
    payload = {**report.record(ns.split), "n_users": report.n_users}
    if csv:
        tsv_id = {dense: raw for raw, dense in dataset.user_remap.items()}
        _write_csv(csv, "user,hr,recall,ndcg", ((tsv_id[user], *report.per_user[user])
                                                for user in sorted(report.per_user)))
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_generate(ns) -> int:
    file_cfg = _file_config(ns, SyntheticSpec, ("out",))
    spec = _resolve_dataclass(SyntheticSpec, file_cfg, ns)
    if ns.gamma is None and (ns.groups is not None or ns.n0 is not None):
        raise EngineError("--groups and --n0 apply only with --gamma")
    groups, n0 = 50 if ns.groups is None else ns.groups, 100 if ns.n0 is None else ns.n0
    if ns.gamma is not None:
        gamma_quotas(n0, ns.gamma, groups)  # rejects bad split flags up front
    out = Path(ns.out or "dataset")
    _require_out_dir("--out", out)
    result = generate_synthetic(spec)
    manifest = {"mode": "biased-exposure", "spec": dataclasses.asdict(spec)}
    if ns.gamma is not None:
        result, split = gamma_resplit(result, ns.gamma, n0, groups, spec.seed)
        manifest.update(mode="gamma", gamma=ns.gamma, groups=groups, n0=n0,
                        quotas=split.quotas.tolist(), drawn=split.drawn.tolist())
    files = {name: result.dataset.pairs(name) for name in SPLITS}
    files["planted_fn"] = result.planted_fn
    write_dataset(out, files)

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
    check_seed(ns.seed, "--seed", EngineError)
    out = Path(ns.out or "diagnostics.csv")
    _require_out_file("--out", out)
    dataset = _load_dataset(ns)
    enc, hardness = ckpt.load_checkpoint(ns.checkpoint, dataset)
    if hardness is None and ns.which in ("profile", "fnrate"):
        raise EngineError(f"checkpoint has no hardness model; cannot compute {ns.which}")
    rng = substream(ns.seed, "diagnose", ns.which)

    if ns.which == "profile":
        header, rows = "bin,mean_p,count", hardness_popularity_profile(
            hardness, enc, dataset, ns.bins, ns.n_negatives, rng)
    elif ns.which == "fnrate":
        if ns.planted_fn is None or not Path(ns.planted_fn).is_file():
            raise EngineError("fnrate needs --planted_fn pointing at planted_fn.tsv")
        listed = read_pairs(ns.planted_fn)
        planted = dataset.remap_pairs(listed)
        if len(planted) < len(listed):
            raise EngineError(f"{ns.planted_fn}: {len(listed) - len(planted)} of {len(listed)} "
                              "planted pairs name a user or item that no split holds")
        if planted.size == 0:
            raise EngineError(f"{ns.planted_fn} lists no planted false negatives "
                              "(fnrate only applies to synthetic datasets)")
        header, rows = "fn_rate,n_resamples", [(fn_identification_rate(
            hardness, planted, enc, dataset, ns.n_negatives, rng, ns.n_resamples), ns.n_resamples)]
    elif ns.which == "alignuniform":
        pairs = dataset.train_pairs
        take = min(len(pairs), 2048)
        pos = pairs[rng.choice(len(pairs), size=take, replace=False)]
        users = rng.choice(dataset.n_users, size=min(dataset.n_users, 256), replace=False)
        items = rng.choice(dataset.n_items, size=min(dataset.n_items, 256), replace=False)
        header, rows = "align,uniform", [alignment_uniformity(enc, pos, users, items)]
    else:
        raise EngineError(f"unknown diagnostic {ns.which!r}")
    _write_csv(out, header, rows)
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
                        help="also dump per-user metrics to this CSV, users by their TSV ids")
    p_eval.set_defaults(func=cmd_evaluate)

    p_gen = sub.add_parser("generate", help="write a synthetic biased-exposure dataset")
    p_gen.add_argument("--config", default=None)
    p_gen.add_argument("--out", default=None)
    _add_dataclass_flags(p_gen, SyntheticSpec)
    p_gen.add_argument("--gamma", type=float, default=None,
                       help="build the test split by popularity-group quotas instead of planted FNs")
    p_gen.add_argument("--groups", type=int, default=None, help="with --gamma (default 50)")
    p_gen.add_argument("--n0", type=int, default=None, help="with --gamma (default 100)")
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
    except (NonFinite, NonFiniteGradient, ZeroNormError) as exc:
        _log(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (EngineError, OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
