"""Versioned binary checkpoint: encoder metadata and tables plus an optional
hardness-model section.

Layout: a magic line, one JSON header line (sorted keys) describing metadata
and the array directory, then the raw little-endian float64 bytes of each
array in directory order. array_directory defines that directory for the
writer, the header check and the loader. The writer is byte-deterministic:
identical parameters always serialize to identical files. It writes a
temporary file in the target's directory and renames it over the target, so a
failed save leaves any earlier file at that path as it was. The file a save
replaces is closed on a background thread, so the caller does not wait for
the file system to free its blocks.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading

import numpy as np

from .encoder import BACKBONES, LIGHTGCN, Encoder, build_norm_adjacency
from .errors import IncompatibleCheckpoint
from .loss import HARDNESS_MODELS
from .numkit import EmbeddingTable

MAGIC = b"ADVRECKPT1\n"
FORMAT_VERSION = 1

# The thread that closes the file the last save replaced. It is not a daemon,
# so interpreter exit waits for it; a forked child sees it as finished.
_release: threading.Thread | None = None


def array_directory(hardness_kind: str | None) -> list[tuple[str, tuple[str, ...]]]:
    """The arrays of a checkpoint as (name, symbolic shape), in file order:
    user_values, item_values, then hardness.<name> for the LAYOUT of the
    hardness model, if any, sorted by name (adv_item before adv_user). Sizes
    name encoder fields; "h" is the hardness model's own width, which only has
    to agree across its arrays."""
    directory = [("user_values", ("n_users", "dim")), ("item_values", ("n_items", "dim"))]
    if hardness_kind is not None:
        directory += [(f"hardness.{name}", dims)
                      for name, dims in sorted(HARDNESS_MODELS[hardness_kind].LAYOUT)]
    return directory


def _layout_name(name: str) -> str:
    """The LAYOUT name of array_directory's hardness.<name> entry."""
    return name.partition(".")[2]


def save_checkpoint(path, enc: Encoder, hardness=None) -> None:
    """Write `enc` (and `hardness`) to `path`, replacing any file there
    atomically.

    The bytes go to a temporary file in the same directory, which is synced
    and renamed over `path`. If anything fails, the file at `path` is left
    as it was and the temporary file is removed.

    Freeing the blocks of a replaced file can cost far more than writing the
    new one (on ext4 mounted with `discard`, 60-110 ms for a 1.5 MB file
    against about 1 ms for the write). The file system frees them when the
    last descriptor on the unlinked file closes. So the save opens the
    existing file read-only before the rename, and on success hands that
    descriptor to one background thread to close. On failure the file is still
    linked, and the descriptor is closed at once. At most one close is
    pending: a save first waits for the previous one, which bounds the disk
    space held by replaced files. Interpreter exit also waits for it.

    Saves must come from one thread at a time.
    """
    global _release
    kind = None if hardness is None else hardness.kind
    params = {} if hardness is None else hardness.param_arrays()
    directory = array_directory(kind)
    arrays = [enc.user_table.values, enc.item_table.values,
              *(params[_layout_name(name)] for name, _ in directory[2:])]
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
        "hardness": None if kind is None else {"kind": kind},
        "arrays": [{"name": name, "shape": list(arr.shape)}
                   for (name, _), arr in zip(directory, arrays)],
    }
    if _release is not None:
        _release.join()
    try:
        # O_NONBLOCK: opening a FIFO at `path` must not wait for a writer.
        replaced = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:  # nothing to hold; os.replace reports a target it cannot replace
        replaced = None
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if replaced is not None:
            os.close(replaced)
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    if replaced is not None:
        _release = threading.Thread(target=os.close, args=(replaced,), name="checkpoint-release")
        _release.start()


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_header(path, fh) -> dict:
    """The header after the magic line, checked against what save_checkpoint
    writes: encoder metadata, hardness kind, and that kind's array_directory
    with shapes that fit them."""
    if fh.read(len(MAGIC)) != MAGIC:
        raise IncompatibleCheckpoint(f"{path}: bad magic")
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IncompatibleCheckpoint(f"{path}: bad header ({exc})")
    if not isinstance(header, dict):
        raise IncompatibleCheckpoint(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_VERSION:
        raise IncompatibleCheckpoint(f"{path}: unknown format {header.get('format')}")
    meta = header.get("encoder")
    if not (isinstance(meta, dict) and meta.get("kind") in BACKBONES
            and all(_is_count(meta.get(key)) for key in ("n_users", "n_items", "dim", "layers"))
            and isinstance(meta.get("tau"), (int, float)) and not isinstance(meta["tau"], bool)
            and 0 < meta["tau"] <= sys.float_info.max  # no nan, inf or int beyond float
            and (meta["kind"] == LIGHTGCN or meta["layers"] == 0)):
        raise IncompatibleCheckpoint(f"{path}: bad encoder metadata {meta!r}")
    hmeta = header.get("hardness")
    # A tuple: testing a dict for an unhashable kind would raise TypeError.
    if hmeta is not None and not (isinstance(hmeta, dict)
                                  and hmeta.get("kind") in tuple(HARDNESS_MODELS)):
        raise IncompatibleCheckpoint(f"{path}: unknown hardness {hmeta!r}")
    layout = array_directory(None if hmeta is None else hmeta["kind"])
    entries = header.get("arrays")
    if not (isinstance(entries, list) and len(entries) == len(layout)):
        raise IncompatibleCheckpoint(f"{path}: array directory does not fit the metadata")
    sizes = {key: meta[key] for key in ("n_users", "n_items", "dim")}
    for entry, (name, dims) in zip(entries, layout):
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (isinstance(shape, list) and entry.get("name") == name
                and len(shape) == len(dims) and all(map(_is_count, shape))
                and all(sizes.setdefault(dim, n) == n for dim, n in zip(dims, shape))):
            raise IncompatibleCheckpoint(f"{path}: array {entry!r} does not fit the metadata")
    return header


def load_checkpoint(path, dataset=None) -> tuple[Encoder, object | None]:
    """Load an encoder (and hardness model, if present).

    For the graph backbone the adjacency is rebuilt from the dataset's train
    positives; dims are validated against the dataset when one is given. A
    file that is not exactly what save_checkpoint writes for some model, or
    whose arrays hold NaN or Inf, raises IncompatibleCheckpoint.
    """
    with open(path, "rb") as fh:
        header = _read_header(path, fh)
        counts = [math.prod(entry["shape"]) for entry in header["arrays"]]
        data_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if data_bytes != 8 * sum(counts):
            raise IncompatibleCheckpoint(
                f"{path}: {data_bytes} bytes of array data, the directory needs {8 * sum(counts)}")
        arrays = [np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(entry["shape"]).copy()
                  for entry, count in zip(header["arrays"], counts)]
    for entry, arr in zip(header["arrays"], arrays):
        if not np.isfinite(arr).all():
            raise IncompatibleCheckpoint(f"{path}: array {entry['name']} holds NaN or Inf")

    meta = header["encoder"]
    if dataset is not None:
        if meta["n_users"] != dataset.n_users or meta["n_items"] != dataset.n_items:
            raise IncompatibleCheckpoint(
                f"{path}: checkpoint is for {meta['n_users']}x{meta['n_items']} "
                f"but dataset has {dataset.n_users}x{dataset.n_items}"
            )
    adj = None
    if meta["kind"] == LIGHTGCN:
        if dataset is None:
            raise IncompatibleCheckpoint(f"{path}: graph checkpoint needs a dataset to rebuild the adjacency")
        adj = build_norm_adjacency(meta["n_users"], meta["n_items"], dataset.train_pairs)
    # in array_directory's order, which _read_header checked
    user_values, item_values, *params = arrays
    enc = Encoder(
        kind=meta["kind"],
        user_table=EmbeddingTable(user_values),
        item_table=EmbeddingTable(item_values),
        tau=meta["tau"],
        layers=meta["layers"],
        adj=adj,
    )
    if header["hardness"] is None:
        return enc, None
    return enc, HARDNESS_MODELS[header["hardness"]["kind"]].from_arrays(**{
        _layout_name(entry["name"]): arr for entry, arr in zip(header["arrays"][2:], params)})
