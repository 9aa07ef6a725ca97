"""Wall time and main-thread minor page faults per training step, on data
read from TSV files as `advrec train` reads it.

Writes the synthetic dataset of criterion 10 (EXPERIMENT_SPEC of
tests/test_acceptance.py, seed 0) with `advrec generate` in a child process,
loads it with load_interactions, and trains MF and LightGCN with each
hardness model (strategy adv) on criterion 10's training config in this
process. The generator's large arrays are allocated and freed in the child
only: freed here, they would raise glibc's dynamic mmap and trim thresholds
for the rest of the process and hide what a training step costs when it
frees its blocks.

For each backbone and hardness model it prints the run's wall seconds and
main-thread minor faults; per min step and per adversarial step, the median
wall milliseconds; per min pass and per adversarial pass, the median of the
pass's main-thread minor faults summed over its steps (getrusage with
RUSAGE_THREAD, Linux only; a pass faults its workspace buffers in on its
first step, the MLP model's gather block and the chunk buffer, which a
per-step median would leave out); and the number of
trainer.sample_negatives calls with their median wall milliseconds, timed
on the thread that runs each (the prefetch worker, or the main thread for a
pass's first batch); and the number of trainer.representations calls (one
before each adversarial pass, on the main thread: the whole-graph
propagation for LightGCN, the tables themselves for MF) with their median
wall milliseconds and median main-thread minor faults per call.
The prefetch worker's faults are not counted. Fault counts depend on the
allocator, so compare them between trees on one machine only. Run from the
repository root:

    PYTHONPATH=src python tools/step_faults.py
"""

from __future__ import annotations

import collections
import itertools
import os

# One BLAS thread, as perfbench runs, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import advrec
from advrec import trainer
from advrec.dataio import SPLITS, load_interactions
from advrec.encoder import LIGHTGCN, MF
from advrec.loss import HARDNESS_MODELS

SEED = 0
SPEC = dict(n_users=2000, n_items=1000, latent_dim=32, exposure_bias_strength=1.0,
            train_fraction=0.6, fn_plant_rate=0.2, relevance_quantile=0.02)
CFG = dict(lr=0.05, lr_adv=0.01, batch_size=1024, n_negatives=16, k_weight=16.0, tau=0.2,
           e_adv_max=6, t_adv_interval=3, max_epochs=30, eval_every=10, patience=50,
           embed_dim=32, k_eval=20)
BACKBONES = (MF, LIGHTGCN)
STEPS = ("min_step", "adv_step")
REPS = "representations"
MEASURED = (*STEPS, "sample_negatives", REPS)  # the trainer functions measured_run times


def minor_faults() -> int:
    """Minor page faults of the calling thread so far."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def write_dataset(out: Path) -> None:
    """SPEC's dataset as TSV files in out, from `advrec generate` in a child
    process that imports the same advrec sources."""
    src = str(Path(advrec.__file__).resolve().parent.parent)
    flags = [arg for name, value in SPEC.items() for arg in (f"--{name}", str(value))]
    subprocess.run([sys.executable, "-c", "import sys; from advrec.cli import main; "
                    "sys.exit(main(sys.argv[1:]))", "generate", "--out", str(out),
                    "--seed", str(SEED), *flags],
                   check=True, stdin=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": src})


def measured_run(dataset, backbone: str, hardness: str) -> tuple[float, int, dict, dict]:
    """run_training's wall seconds and main-thread faults; for each name of
    MEASURED the list of (seconds, faults) of its calls, each measured on
    the thread that made it; and for each name of STEPS the faults of each
    pass, summed over the pass's steps."""
    cfg = trainer.TrainConfig(seed=SEED, backbone=backbone, hardness_strategy="adv",
                              hardness_kind=hardness, **CFG)
    steps = {name: [] for name in MEASURED}
    passes = {name: collections.Counter() for name in STEPS}
    real = {name: getattr(trainer, name) for name in MEASURED}

    def measured(name):
        def call(*args):
            f0, t0 = minor_faults(), time.perf_counter()
            result = real[name](*args)
            steps[name].append((time.perf_counter() - t0, minor_faults() - f0))
            if name in STEPS:  # an epoch runs at most one pass of each step
                passes[name][args[0].epoch] += steps[name][-1][1]
            return result
        return call

    for name in MEASURED:
        setattr(trainer, name, measured(name))
    try:
        f0, t0 = minor_faults(), time.perf_counter()
        trainer.run_training(dataset, cfg)
        return time.perf_counter() - t0, minor_faults() - f0, steps, passes
    finally:
        for name, fn in real.items():
            setattr(trainer, name, fn)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(Path(tmp))
        dataset = load_interactions(*(Path(tmp) / f"{name}.tsv" for name in SPLITS))
    print("| backbone | hardness | run_s | run faults | min steps | ms/min step "
          "| faults/min pass | adv steps | ms/adv step | faults/adv pass | samples "
          "| ms/sample | reps | ms/reps | faults/reps |")
    print("|" + " --- |" * 15)
    for backbone, hardness in itertools.product(BACKBONES, HARDNESS_MODELS):
        wall, faults, steps, passes = measured_run(dataset, backbone, hardness)
        cells = [backbone, hardness, f"{wall:.3f}", str(faults)]
        for name in MEASURED:
            calls = steps[name] or [(0.0, 0)]
            cells += [str(len(steps[name])), f"{1e3 * statistics.median(s for s, _ in calls):.3f}"]
            if name in STEPS:
                cells.append(f"{statistics.median(passes[name].values() or [0]):.1f}")
            elif name == REPS:
                cells.append(f"{statistics.median(f for _, f in calls):.1f}")
        print("| " + " | ".join(cells) + " |", flush=True)

if __name__ == "__main__":
    main()
