"""Shared test helpers: finite-difference oracles, tiny datasets and a deadline."""

import contextlib
import signal

import numpy as np
import pytest

from advrec.dataio import InteractionSet


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x (flattened)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Max |a - n| normalized by the largest magnitude in either gradient.

    Per-coordinate ratios are meaningless where the central-difference
    oracle's own roundoff (~1e-10 * |f| absolute at step 1e-6) dwarfs a
    tiny true component, so errors are measured against the dominant scale.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(analytic), initial=0.0),
                np.max(np.abs(numeric), initial=0.0), floor)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def fd_ratio(analytic, numeric, rtol: float = 1e-5, atol: float = 1e-8) -> float:
    """max |a - n| / (atol + rtol * scale); <= 1 means the gradients agree to
    rtol relative once the central-difference oracle's own roundoff floor
    (~1e-16 * |f| / (2h) absolute at step h = 1e-6) is budgeted by atol."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(analytic), initial=0.0),
                np.max(np.abs(numeric), initial=0.0))
    return float(np.max(np.abs(analytic - numeric), initial=0.0)) / (atol + rtol * scale)


def tiny_dataset(n_users=6, n_items=8, seed=0) -> InteractionSet:
    """Small random dataset with all three splits populated."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(n_users):
        for i in rng.choice(n_items, size=4, replace=False):
            pairs.add((u, int(i)))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    n = len(pairs)
    train = np.array(pairs[: int(0.7 * n)], dtype=np.int64)
    valid = np.array(pairs[int(0.7 * n): int(0.85 * n)], dtype=np.int64)
    test = np.array(pairs[int(0.85 * n):], dtype=np.int64)
    return InteractionSet(n_users=n_users, n_items=n_items,
                          train_pairs=train, valid_pairs=valid, test_pairs=test)


@pytest.fixture
def small_dataset():
    return tiny_dataset()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
