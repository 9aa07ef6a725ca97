"""Versioned binary checkpoint: encoder metadata and tables plus an optional
hardness-model section.

Layout: a magic line, one JSON header line (sorted keys) describing metadata
and the array directory, then the raw little-endian float64 bytes of each
array in directory order. The writer is byte-deterministic: identical
parameters always serialize to identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .encoder import Encoder, build_norm_adjacency
from .errors import IncompatibleCheckpoint
from .loss import EmbedHardness, MlpHardness
from .numkit import EmbeddingTable

MAGIC = b"ADVRECKPT1\n"
FORMAT_VERSION = 1


def _array_entry(name: str, arr: np.ndarray) -> dict:
    return {"name": name, "shape": list(arr.shape)}


def save_checkpoint(path, enc: Encoder, hardness=None) -> None:
    arrays: list[tuple[str, np.ndarray]] = [
        ("user_values", enc.user_table.values),
        ("item_values", enc.item_table.values),
    ]
    hardness_meta = None
    if hardness is not None:
        hardness_meta = {"kind": hardness.kind}
        for name, arr in sorted(hardness.param_arrays().items()):
            arrays.append((f"hardness.{name}", arr))
    header = {
        "format": FORMAT_VERSION,
        "encoder": {
            "kind": enc.kind,
            "n_users": enc.n_users,
            "n_items": enc.n_items,
            "dim": enc.dim,
            "tau": enc.tau,
            "layers": enc.layers,
        },
        "hardness": hardness_meta,
        "arrays": [_array_entry(name, arr) for name, arr in arrays],
    }
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, dataset=None) -> tuple[Encoder, object | None]:
    """Load an encoder (and hardness model, if present).

    For the graph backbone the adjacency is rebuilt from the dataset's train
    positives; dims are validated against the dataset when one is given.
    """
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise IncompatibleCheckpoint(f"{path}: bad magic")
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IncompatibleCheckpoint(f"{path}: bad header ({exc})")
        if header.get("format") != FORMAT_VERSION:
            raise IncompatibleCheckpoint(f"{path}: unknown format {header.get('format')}")
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise IncompatibleCheckpoint(f"{path}: truncated array {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

    meta = header["encoder"]
    if dataset is not None:
        if meta["n_users"] != dataset.n_users or meta["n_items"] != dataset.n_items:
            raise IncompatibleCheckpoint(
                f"checkpoint is for {meta['n_users']}x{meta['n_items']} "
                f"but dataset has {dataset.n_users}x{dataset.n_items}"
            )
    adj = None
    if meta["kind"] == "lightgcn":
        if dataset is None:
            raise IncompatibleCheckpoint("graph checkpoint needs a dataset to rebuild the adjacency")
        adj = build_norm_adjacency(meta["n_users"], meta["n_items"], dataset.train_pairs)
    enc = Encoder(
        kind=meta["kind"],
        user_table=EmbeddingTable(arrays["user_values"]),
        item_table=EmbeddingTable(arrays["item_values"]),
        tau=meta["tau"],
        layers=meta["layers"],
        adj=adj,
    )
    hardness = None
    hmeta = header.get("hardness")
    if hmeta is not None:
        if hmeta["kind"] == "embed":
            hardness = EmbedHardness(
                EmbeddingTable(arrays["hardness.adv_user"]),
                EmbeddingTable(arrays["hardness.adv_item"]),
            )
        elif hmeta["kind"] == "mlp":
            hardness = MlpHardness.from_arrays(
                arrays["hardness.w_user"], arrays["hardness.b_user"],
                arrays["hardness.w_item"], arrays["hardness.b_item"],
            )
        else:
            raise IncompatibleCheckpoint(f"unknown hardness kind {hmeta['kind']!r}")
    return enc, hardness
