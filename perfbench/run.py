"""advrec benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload mf-adv --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer wrapped and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same object, plus raw timings,
goes to ``perfbench/_out/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread keeps timings independent of
# what the second vCPU is doing and keeps float results reproducible.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"

if not (SRC / "advrec" / "__init__.py").is_file():
    sys.exit(f"perfbench: no advrec sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np

import advrec
from advrec import checkpoint, dataio, encoder, evaluation, loss, numkit, trainer
from advrec.rng import substream

import checks
from probe import REFERENCE_S, Probe
from recorder import Recorder

if Path(advrec.__file__).resolve().parent != SRC / "advrec":
    sys.exit(f"perfbench: advrec was imported from {advrec.__file__}, not from {SRC}")

clock = time.perf_counter

# The acceptance configuration of criteria 10/11 (EXPERIMENT_SPEC and
# EXPERIMENT_CFG in tests/test_acceptance.py), strategy "adv".
ACCEPTANCE_SPEC = dict(n_users=2000, n_items=1000, latent_dim=32,
                       exposure_bias_strength=1.0, train_fraction=0.6,
                       fn_plant_rate=0.2, relevance_quantile=0.02)
ACCEPTANCE_CFG = dict(lr=0.05, lr_adv=0.01, batch_size=1024, n_negatives=16,
                      k_weight=16.0, tau=0.2, e_adv_max=6, t_adv_interval=3,
                      max_epochs=30, eval_every=10, patience=50, backbone="mf",
                      embed_dim=32, k_eval=20)


@dataclass(frozen=True)
class Workload:
    spec: dict          # SyntheticSpec fields
    cfg: dict           # TrainConfig fields (strategy "adv")
    from_tsv: bool      # inputs come from TSV files written by another process
    eval_blocks: int    # blocks of test users that the timed evaluations take in turn
    eval_every: int     # min steps between two timed evaluations
    needs: tuple        # layers the traced run must see called


_COMMON_LAYERS = (
    "dataio.sample_negatives", "encoder.build_encoder", "encoder.representations",
    "encoder.batch_forward", "encoder.batch_backward", "loss.advinfonce_backward_batch",
    "numkit.adam_step", "trainer.run_training", "trainer.min_step", "trainer.adv_step",
    "evaluation.evaluate_split", "evaluation.fn_identification_rate",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
)
_VALIDATED = ("trainer.hardness_divergence",)

WORKLOADS = {
    "mf-adv": Workload(
        ACCEPTANCE_SPEC, ACCEPTANCE_CFG, from_tsv=False, eval_blocks=20, eval_every=7,
        needs=_COMMON_LAYERS + _VALIDATED + ("dataio.generate_synthetic",)),
    # Every evaluate_split call propagates the whole graph; with four blocks
    # that is about a tenth of a timed evaluation.
    "lightgcn-adv": Workload(
        ACCEPTANCE_SPEC, dict(ACCEPTANCE_CFG, backbone="lightgcn", max_epochs=15), from_tsv=False,
        eval_blocks=4, eval_every=7,
        needs=_COMMON_LAYERS + _VALIDATED + ("dataio.generate_synthetic", "numkit.propagate")),
    # About 10k users x 5k items and 40k train pairs. Training is short and
    # has no in-loop validation; all-item ranking of ~2.6k test users
    # dominates. (Planting fewer false negatives than mf-adv keeps the
    # ranking short enough to time it in units and once more in full.)
    "rank-large": Workload(
        dict(ACCEPTANCE_SPEC, n_users=10_000, n_items=5_000, relevance_quantile=0.0037,
             fn_plant_rate=0.025),
        dict(ACCEPTANCE_CFG, max_epochs=3, t_adv_interval=3, e_adv_max=1, eval_every=1000),
        from_tsv=True, eval_blocks=20, eval_every=6,
        needs=_COMMON_LAYERS + ("dataio.load_interactions",)),
}

WARM_PROBES = 50    # untimed probes before the first timed one
SETUPS = 8          # set-ups per run, half before the rounds and half after; setup_s is their median
SPLITS = ("train", "valid", "test")
CHECK_USERS = 200   # users per round whose ranking metrics are recomputed
BATCH_STRIDE = 25   # every 25th training step's batch is checked
SAMPLE_STRIDE = 997  # in the traced run, every 997th sample_negatives call

# Counters a layer's wrapper adds to its stats in the traced run.
def _rows(stats, args, result):
    grads = args[1]
    stats["rows"] = stats.get("rows", 0) + len(grads[0] if isinstance(grads, tuple) else grads)


def _users(stats, args, result):
    stats["users"] = stats.get("users", 0) + result.n_users


def _bytes(stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + os.path.getsize(args[0])


# Layer name -> the (module, attribute) lookups wrapped in the traced run,
# and the layer's counter.
LAYERS = {
    "dataio.generate_synthetic": ([(dataio, "generate_synthetic")], None),
    "dataio.load_interactions": ([(dataio, "load_interactions")], None),
    "dataio.sample_negatives": ([(trainer, "sample_negatives"),
                                 (evaluation, "sample_negatives")], None),
    "encoder.build_encoder": ([(encoder, "build_encoder"), (trainer, "build_encoder")], None),
    "encoder.representations": ([(encoder, "representations"),
                                 (evaluation, "representations")], None),
    "encoder.batch_forward": ([(trainer, "batch_forward")], None),
    "encoder.batch_backward": ([(trainer, "batch_backward")], None),
    "numkit.propagate": ([(encoder, "propagate"), (numkit, "propagate")], None),
    "loss.advinfonce_backward_batch": ([(trainer, "advinfonce_backward_batch")], None),
    "numkit.adam_step": ([(trainer, "adam_step"), (loss, "adam_step")], _rows),
    "trainer.run_training": ([(trainer, "run_training")], None),
    "trainer.min_step": ([(trainer, "min_step")], None),
    "trainer.adv_step": ([(trainer, "adv_step")], None),
    "trainer.hardness_divergence": ([(trainer, "hardness_divergence")], None),
    "evaluation.evaluate_split": ([(evaluation, "evaluate_split"),
                                   (trainer, "evaluate_split")], _users),
    "evaluation.fn_identification_rate": ([(evaluation, "fn_identification_rate")], None),
    "checkpoint.save_checkpoint": ([(checkpoint, "save_checkpoint")], _bytes),
    "checkpoint.load_checkpoint": ([(checkpoint, "load_checkpoint")], None),
}
LAYER_COUNTERS = {"numkit.adam_step": "rows", "evaluation.evaluate_split": "users",
                  "checkpoint.save_checkpoint": "bytes"}

class EvalUnits:
    """Timed test-split evaluations spread over training: the units behind
    eval_users_per_s.

    After every ``eval_every``-th min step, evaluate_split ranks one block of
    test users with the encoder as it stands; the blocks take turns. A block
    is an InteractionSet of the train split and the block's test pairs,
    built before the timed call. ``spent_s`` also counts building the
    blocks, so that training time can leave the units out.
    """

    def __init__(self, w: Workload):
        self.w = w
        self.dataset = None
        self.blocks: list = []
        self.reset()

    def reset(self) -> None:
        self.users: list[int] = []       # users ranked, one entry per unit
        self.seconds: list[float] = []   # evaluate_split seconds, one per unit
        self.spent_s = 0.0

    def use(self, dataset) -> None:
        users = np.unique(dataset.test_pairs[:, 0])
        self.dataset = dataset
        self.blocks = [dataset.test_pairs[np.isin(dataset.test_pairs[:, 0], block)]
                       for block in np.array_split(users, self.w.eval_blocks)]

    def after_min_step(self, step: int, enc) -> None:
        if step % self.w.eval_every:
            return
        start = clock()
        ds = self.dataset
        if len(self.blocks) > 1:
            test = self.blocks[(step // self.w.eval_every - 1) % len(self.blocks)]
            ds = dataio.InteractionSet(ds.n_users, ds.n_items, ds.train_pairs,
                                       np.zeros((0, 2), dtype=np.int64), test)
        e0 = clock()
        report = evaluation.evaluate_split(enc, ds, "test", self.w.cfg["k_eval"])
        end = clock()
        self.users.append(report.n_users)
        self.seconds.append(end - e0)
        self.spent_s += end - start


class StepHooks:
    """Runs after every training step, from the min_step and adv_step
    wrappers: counts train pairs, keeps batches for the negatives check,
    starts the timed evaluations and, in the untraced run, runs one probe."""

    def __init__(self, seed: int, units: EvalUnits, probe: Probe, probing: bool):
        self.seed, self.units, self.probe, self.probing = seed, units, probe, probing
        self.pairs = 0
        self.kept_batches: list = []

    def after_min_step(self, stats, args, result):
        if stats["calls"] % BATCH_STRIDE == self.seed % BATCH_STRIDE:
            self.kept_batches.append((args[1].users.copy(), args[1].negatives.copy()))
        self.units.after_min_step(stats["calls"], args[0].encoder)
        self.after_step(stats, args, result)

    def after_step(self, stats, args, result):
        self.pairs += len(args[1].users)
        if self.probing:
            self.probe.run()


def install(rec: Recorder, traced: bool, seed: int, hooks: StepHooks, kept_samples: list) -> None:
    """Wrap the two training steps (always) or every layer (traced run)."""
    def keep_sample(stats, args, result):
        if stats["calls"] % SAMPLE_STRIDE == seed % SAMPLE_STRIDE:
            kept_samples.append((np.array([args[1]]), result.negatives.copy()))

    keepers = {"trainer.min_step": hooks.after_min_step, "trainer.adv_step": hooks.after_step}
    if not traced:
        for layer, count in keepers.items():
            rec.wrap(trainer, layer.split(".")[1], layer, count=count)
        return
    keepers["dataio.sample_negatives"] = keep_sample
    for layer, (lookups, count) in LAYERS.items():
        for module, attr in lookups:
            rec.wrap(module, attr, layer, count=keepers.get(layer, count))


def speed(probe_s: float) -> float:
    """How many times slower than the reference the host ran, from the
    mean probe time over a stretch (1 when nothing was probed)."""
    return probe_s / REFERENCE_S if probe_s > 0 else 1.0


def write_rank_inputs(seed: int, model_seed: int, out: Path) -> None:
    """Write the rank-large TSV files into ``out`` from a child process, so
    the generator's memory stays out of peak_rss_mb. subprocess.run waits
    for the child, and kills it and waits again if the parent is
    interrupted, so no process outlives the run."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", "rank-large",
                    "--seed", str(seed), "--model-seed", str(model_seed), "--seconds", "0",
                    "--write-inputs", str(out)], check=True, stdin=subprocess.DEVNULL)


def _write_rank_inputs(seed: int, model_seed: int, out: Path) -> None:
    """Generate the rank-large data from the model seed (cached in
    perfbench/_out/data while the spec and the engine's sources are
    unchanged) and write it as TSV under external ids: ``seed`` draws
    distinct user and item ids from a range ten times their count. Loading
    remaps ids in first-seen order, so the engine sees the same dense data
    whatever ``seed`` is."""
    spec = WORKLOADS["rank-large"].spec
    key = hashlib.sha256(repr((model_seed, spec)).encode())
    for source in sorted((SRC / "advrec").glob("*.py")):
        key.update(source.read_bytes())
    cache = OUT / "data" / f"rank-large-{key.hexdigest()[:16]}.npz"
    if not cache.exists():
        result = dataio.generate_synthetic(dataio.SyntheticSpec(seed=model_seed, **spec))
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(".tmp.npz")
        np.savez(tmp, planted_fn=result.planted_fn,
                 **{name: result.dataset.pairs(name) for name in SPLITS})
        os.replace(tmp, cache)
    with np.load(cache) as arrays:
        pairs = {name: arrays[name] for name in (*SPLITS, "planted_fn")}
    rng = np.random.default_rng([seed, 0xBE7C4])
    user_ids = rng.choice(10 * spec["n_users"], size=spec["n_users"], replace=False)
    item_ids = rng.choice(10 * spec["n_items"], size=spec["n_items"], replace=False)
    out.mkdir(parents=True, exist_ok=True)
    for name, p in pairs.items():
        lines = [f"{u}\t{i}\n" for u, i in zip(user_ids[p[:, 0]], item_ids[p[:, 1]])]
        (out / f"{name}.tsv").write_text("".join(lines), encoding="utf-8")


def read_tsv(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2).reshape(-1, 2)


def setup(w: Workload, model_seed: int, tsv_dir: Path | None):
    """Build the dataset's InteractionSet and the encoder (timed as
    setup_s). Returns the dataset and, for synthetic data, the planted
    false negatives."""
    if tsv_dir is None:
        data = dataio.generate_synthetic(dataio.SyntheticSpec(seed=model_seed, **w.spec))
        dataset, planted = data.dataset, data.planted_fn
    else:
        dataset = dataio.load_interactions(*(tsv_dir / f"{s}.tsv" for s in SPLITS))
        planted = None
    cfg = w.cfg
    encoder.build_encoder(cfg["backbone"], dataset.n_users, dataset.n_items,
                          cfg["embed_dim"], cfg["tau"], model_seed, train_pairs=dataset.train_pairs)
    return dataset, planted


def run_round(w: Workload, model_seed: int, dataset, planted, hooks: StepHooks, ckpt_dir: Path):
    """train -> test evaluation -> fn rate -> checkpoint save and load.

    Every time is divided by the host's speed over the same stretch: for
    training and the timed evaluations, the probes run after each step; for
    fn rate and the checkpoint, probes run just before and after."""
    cfg = trainer.TrainConfig(seed=model_seed, hardness_strategy="adv", **w.cfg)
    units, probe = hooks.units, hooks.probe
    units.reset()
    hooks.pairs = 0
    hooks.kept_batches = []   # the negatives check reads the last round's batches
    first_probe = len(probe.times)
    t0 = clock()
    outcome = trainer.run_training(dataset, cfg)
    t1 = clock()
    probes = probe.times[first_probe:]
    train_speed = speed(float(np.mean(probes)) if probes else 0.0)
    train_raw_s = t1 - t0 - units.spent_s - sum(probes)
    user_raw_s = sum(units.seconds) / sum(units.users)
    enc, hardness = outcome.state.encoder, outcome.state.hardness
    e0 = clock()
    report = evaluation.evaluate_split(enc, dataset, "test", cfg.k_eval)
    e1 = clock()
    fn_rate, fn_raw_s, fn_probe_s = probe.around(lambda: evaluation.fn_identification_rate(
        hardness, planted, enc, dataset, cfg.n_negatives, substream(model_seed, "fn-rate-eval"),
        n_resamples=1))
    path = ckpt_dir / "model.ckpt"

    def save_and_load():
        checkpoint.save_checkpoint(path, enc, hardness)
        return checkpoint.load_checkpoint(path, dataset)

    loaded, ckpt_raw_s, ckpt_probe_s = probe.around(save_and_load)
    user_s = user_raw_s / train_speed
    return dict(
        outcome=outcome, report=report, loaded=loaded, path=path,
        train_pairs=hooks.pairs, train_s=train_raw_s / train_speed, user_s=user_s,
        eval_s=report.n_users * user_s, fn_s=fn_raw_s / speed(fn_probe_s),
        ckpt_s=ckpt_raw_s / speed(ckpt_probe_s),
        raw=dict(train_wall_s=t1 - t0, train_s=train_raw_s, train_speed=train_speed,
                 train_probes=len(probes), unit_users=units.users, unit_s=units.seconds,
                 final_eval_s=e1 - e0, fn_s=fn_raw_s, fn_speed=speed(fn_probe_s),
                 ckpt_s=ckpt_raw_s, ckpt_speed=speed(ckpt_probe_s)),
        quality=(report.recall, report.ndcg, fn_rate),
        # training, timed evaluations, final evaluation, fn rate, save, load
        ops=1 + len(units.users) + 4,
    )


def verify(w: Workload, seed: int, dataset, rounds, kept_batches, kept_samples,
           written) -> list[str]:
    last = rounds[-1]
    enc, hardness = last["outcome"].state.encoder, last["outcome"].state.hardness
    cfg = w.cfg
    failures = []
    if any(r["quality"] != last["quality"] for r in rounds):
        failures.append("rounds with the same seed gave different quality metrics")
    reps = checks.representations(enc.kind, enc.user_table.values, enc.item_table.values,
                                  enc.layers, dataset.train_pairs)
    failures += checks.representations_match(encoder.representations(enc), reps)
    test_users = np.unique(dataset.test_pairs[:, 0])
    users = np.sort(np.random.default_rng([seed, 0xC4EC]).choice(
        test_users, size=min(CHECK_USERS, len(test_users)), replace=False))
    failures += checks.ranking(last["report"].per_user, *reps, cfg["tau"], dataset.train_pairs,
                               dataset.test_pairs, dataset.n_items, users, cfg["k_eval"])
    failures += checks.negatives(kept_batches + kept_samples, dataset.train_pairs,
                                 dataset.n_items)
    resaved = last["path"].with_name("resaved.ckpt")
    checkpoint.save_checkpoint(resaved, *last["loaded"])
    failures += checks.checkpoint_roundtrip(enc, hardness, last["loaded"], last["path"], resaved)
    failures += checks.kl_nonnegative(last["outcome"].history)
    if written is not None:
        failures += checks.tsv_roundtrip(dataset, written)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws what the output checks sample and rank-large's external ids")
    parser.add_argument("--model-seed", type=int, default=0,
                        help="seed of the synthetic data and of training (default 0)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="rounds repeat until this much time has passed (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so that subprocess.run kills and
    # waits for the input writer and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_inputs is not None:
        _write_rank_inputs(args.seed, args.model_seed, args.write_inputs)
        return 0
    run_dir = OUT / "runs" / (f"{args.workload}-seed{args.seed}-model{args.model_seed}"
                              f"-trace{args.trace}-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        raw, result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps({**raw, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


def run(args, run_dir: Path):
    """One benchmark run; returns the raw timings and the result object."""
    w = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tsv_dir = None
    if w.from_tsv:
        tsv_dir = run_dir / "tsv"
        write_rank_inputs(args.seed, args.model_seed, tsv_dir)
    overhead_per_call = _wrapper_cost() if traced else 0.0
    probe = Probe()
    for _ in range(WARM_PROBES):
        probe.run()
    start = clock()
    rec = Recorder()
    units = EvalUnits(w)
    hooks = StepHooks(args.seed, units, probe, probing=not traced)
    kept_samples = []
    install(rec, traced, args.seed, hooks, kept_samples)
    setup_s, setup_raw_s = [], []

    def timed_setup():
        built, spent, probe_s = probe.around(lambda: setup(w, args.model_seed, tsv_dir))
        setup_raw_s.append(spent)
        setup_s.append(spent / speed(probe_s))
        return built

    for _ in range(SETUPS // 2):
        dataset, planted = timed_setup()
    written = None
    if tsv_dir is not None:
        written = {s: read_tsv(tsv_dir / f"{s}.tsv") for s in SPLITS}
        planted = dataset.remap_pairs(read_tsv(tsv_dir / "planted_fn.tsv"))
    units.use(dataset)

    rounds = []
    while not rounds or clock() - start < args.seconds:
        rounds.append(run_round(w, args.model_seed, dataset, planted, hooks, run_dir))
        if len(rounds) == 1:
            # Set-up plus one whole round: later rounds reuse freed memory
            # unevenly, so the peak would depend on how many rounds fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = clock() - start
    # The other half of the set-ups, far from the first in time and after
    # the peak-memory reading, which they would otherwise raise.
    for _ in range(SETUPS - SETUPS // 2):
        timed_setup()
    if traced:
        rec.require(w.needs)
    rec.unwrap()

    failures = verify(w, args.seed, dataset, rounds, hooks.kept_batches, kept_samples, written)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    setup_med = statistics.median(setup_s)
    if traced:
        metrics = {}
        for layer, stats in rec.layers.items():
            metrics[f"{layer}.busy_s"] = (stats["busy_s"], "s")
            metrics[f"{layer}.self_s"] = (stats["self_s"], "s")
            metrics[f"{layer}.calls"] = (stats["calls"], "count")
        for layer, counter in LAYER_COUNTERS.items():
            name = "checkpoint.bytes" if counter == "bytes" else f"{layer}.{counter}"
            metrics[name] = (rec.layers[layer].get(counter, 0), "B" if counter == "bytes" else "count")
        calls = sum(s["calls"] for s in rec.layers.values())
        metrics["trace.wall_s"] = (wall_s, "s")
        metrics["trace.overhead_s"] = (calls * overhead_per_call, "s")
    else:
        recall, ndcg, fn_rate = rounds[-1]["quality"]
        pipeline = [setup_med + r["train_s"] + r["eval_s"] + r["fn_s"] + r["ckpt_s"] for r in rounds]
        metrics = {
            "setup_s": (setup_med, "s"),
            "train_pairs_per_s": (statistics.median(r["train_pairs"] / r["train_s"] for r in rounds), "pairs/s"),
            "eval_users_per_s": (statistics.median(1.0 / r["user_s"] for r in rounds), "users/s"),
            "pipeline_s": (statistics.median(pipeline), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "test_recall_at_20": (recall, "1"),
            "test_ndcg_at_20": (ndcg, "1"),
            "fn_rate": (fn_rate, "1"),
        }
    result = {
        "correct": not failures,
        "attempted": SETUPS + sum(r["ops"] for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw = {
        "workload": args.workload, "seed": args.seed, "model_seed": args.model_seed,
        "trace": args.trace, "rounds": len(rounds), "wall_s": wall_s,
        "probe_s": sum(probe.times), "probes": len(probe.times),
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "raw": [r["raw"] for r in rounds],
        "check_failures": failures,
    }
    if traced:
        raw["callers"] = [{"caller": c, "layer": l, "busy_s": b, "calls": n}
                          for (c, l), (b, n) in sorted(rec.callers.items())]
    return raw, result


def _wrapper_cost() -> float:
    """Seconds one timing wrapper adds to a call, from a wrapped no-op."""
    probe = types.SimpleNamespace(noop=lambda x: x)
    bare = probe.noop
    Recorder().wrap(probe, "noop", "probe")

    def loop(f, n=20_000):
        t0 = clock()
        for _ in range(n):
            f(1)
        return (clock() - t0) / n

    return max(min(loop(probe.noop) - loop(bare) for _ in range(5)), 0.0)


if __name__ == "__main__":
    sys.exit(main())
