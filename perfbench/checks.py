"""Output checks made apart from the engine.

Each check recomputes a result from its definition with plain numpy (or
scipy.sparse) and returns a list of failure messages; an empty list passes.
None compares against stored output of the engine.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-12


def representations(kind: str, user_values, item_values, layers: int, train_pairs):
    """Final user/item representations: the tables for MF; for LightGCN the
    mean of A^l @ X over l = 0..layers, with A the symmetric-normalised
    user-item adjacency of the train pairs as a scipy.sparse CSR matrix."""
    if kind == "mf" or layers == 0:
        return user_values, item_values
    import scipy.sparse as sp

    n_users = len(user_values)
    n = n_users + len(item_values)
    rows = np.concatenate([train_pairs[:, 0], n_users + train_pairs[:, 1]])
    cols = np.concatenate([n_users + train_pairs[:, 1], train_pairs[:, 0]])
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    adj = sp.csr_matrix((1.0 / np.sqrt(deg[rows] * deg[cols]), (rows, cols)), shape=(n, n))
    current = np.vstack([user_values, item_values])
    total = current.copy()
    for _ in range(layers):
        current = adj @ current
        total += current
    total /= layers + 1
    return total[:n_users], total[n_users:]


def representations_match(got, want) -> list[str]:
    diff = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
    return [] if diff <= TOL else [f"representations differ from the CSR propagation by {diff:.2e}"]


def ranking(per_user: dict, user_reps, item_reps, tau: float, train_pairs, test_pairs,
            n_items: int, users, k: int) -> list[str]:
    """Per-user (HR, recall, NDCG)@k from evaluate_split against an
    all-item ranking.

    Scores are cosine / tau; a user's train positives are not candidates; a
    positive's rank is 1 + #candidates scoring higher + #candidates tied
    with a smaller item id. Recall divides by all of the user's test items.
    """
    failures = []
    u_norm = np.linalg.norm(user_reps, axis=1)
    i_norm = np.linalg.norm(item_reps, axis=1)
    ids = np.arange(n_items)
    idcg = np.cumsum(1.0 / np.log2(np.arange(2, k + 2)))
    for u in users:
        scores = (item_reps @ user_reps[u]) / (u_norm[u] * i_norm * tau)
        candidate = np.ones(n_items, dtype=bool)
        candidate[train_pairs[train_pairs[:, 0] == u, 1]] = False
        positives = test_pairs[test_pairs[:, 0] == u, 1]
        ranks = np.array([
            1 + np.sum(candidate & (scores > scores[p]))
            + np.sum(candidate & (scores == scores[p]) & (ids < p))
            for p in positives
        ])
        hits = ranks[ranks <= k]
        want = (float(len(hits) > 0), len(hits) / len(positives),
                float(np.sum(1.0 / np.log2(1.0 + hits))) / idcg[min(k, len(positives)) - 1])
        got = per_user.get(int(u))
        if got is None or max(abs(a - b) for a, b in zip(got, want)) > TOL:
            failures.append(f"user {u}: evaluate_split gives {got}, ranking gives {want}")
    return failures


def negatives(samples, train_pairs, n_items: int) -> list[str]:
    """Every sampled negative lies in range and is not a train positive of
    its user. ``samples`` holds (users, negatives) with negatives (B, N)."""
    keys = np.unique(train_pairs[:, 0] * n_items + train_pairs[:, 1])
    failures = []
    for users, negs in samples:
        users = np.asarray(users).reshape(-1, 1)
        negs = np.asarray(negs).reshape(len(users), -1)
        if negs.min() < 0 or negs.max() >= n_items:
            failures.append("sampled negative out of range")
        elif np.isin(users * n_items + negs, keys).any():
            failures.append("sampled negative is a train positive of its user")
    if not samples:
        failures.append("no sampled negatives were captured")
    return failures


def checkpoint_roundtrip(enc, hardness, loaded, path, resaved_path) -> list[str]:
    """Loaded parameters equal the saved ones bit for bit, and saving the
    loaded model again writes identical bytes."""
    loaded_enc, loaded_hardness = loaded
    failures = []
    pairs = [(enc.user_table.values, loaded_enc.user_table.values),
             (enc.item_table.values, loaded_enc.item_table.values)]
    pairs += [(a, loaded_hardness.param_arrays()[name])
              for name, a in hardness.param_arrays().items()]
    if any(a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in pairs):
        failures.append("checkpoint load is not bit-exact")
    if (loaded_enc.kind, loaded_enc.tau, loaded_enc.layers) != (enc.kind, enc.tau, enc.layers):
        failures.append("checkpoint load changed the encoder metadata")
    if open(path, "rb").read() != open(resaved_path, "rb").read():
        failures.append("saving the loaded checkpoint gives different bytes")
    return failures


def tsv_roundtrip(dataset, written: dict) -> list[str]:
    """The loaded pairs, mapped back through user_remap/item_remap, equal
    the pairs written, split by split and in order."""
    back_u = np.empty(dataset.n_users, dtype=np.int64)
    back_i = np.empty(dataset.n_items, dtype=np.int64)
    back_u[list(dataset.user_remap.values())] = list(dataset.user_remap.keys())
    back_i[list(dataset.item_remap.values())] = list(dataset.item_remap.keys())
    failures = []
    for split, pairs in written.items():
        got = dataset.pairs(split)
        if not np.array_equal(np.stack([back_u[got[:, 0]], back_i[got[:, 1]]], axis=1), pairs):
            failures.append(f"{split}: loaded pairs do not map back to the pairs written")
    return failures


def kl_nonnegative(history) -> list[str]:
    bad = [r["epoch"] for r in history if not r["kl_mean"] >= 0.0]
    return [f"kl_mean < 0 at epochs {bad}"] if bad else []
