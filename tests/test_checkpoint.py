"""Checkpoint format: bit-exact round-trips and compatibility errors."""

import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import advrec
from advrec.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from advrec.encoder import Encoder, build_encoder, build_norm_adjacency, score
from advrec.errors import IncompatibleCheckpoint
from advrec.evaluation import evaluate_split
from advrec.loss import EmbedHardness, MlpHardness
from advrec.numkit import EmbeddingTable, propagate

from conftest import deadline, tiny_dataset


class TestRoundTrip:
    def test_mf_values_bit_exact(self, tmp_path):
        enc = build_encoder("mf", 5, 7, 4, tau=0.3, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc)
        loaded, hardness = load_checkpoint(path)
        assert hardness is None
        np.testing.assert_array_equal(loaded.user_table.values, enc.user_table.values)
        np.testing.assert_array_equal(loaded.item_table.values, enc.item_table.values)
        assert loaded.tau == enc.tau and loaded.kind == enc.kind

    def test_resave_is_byte_identical(self, tmp_path):
        enc = build_encoder("mf", 4, 4, 3, tau=0.7, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, enc)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lightgcn_round_trip_scores_match(self, tmp_path):
        dataset = tiny_dataset(n_users=5, n_items=6, seed=2)
        enc = build_encoder("lightgcn", dataset.n_users, dataset.n_items, 3,
                            tau=0.4, seed=2, layers=2, train_pairs=dataset.train_pairs)
        path = tmp_path / "gcn.ckpt"
        save_checkpoint(path, enc)
        loaded, _ = load_checkpoint(path, dataset)
        for name in ("rows", "cols", "weights"):
            assert getattr(loaded.adj, name).tobytes() == getattr(enc.adj, name).tobytes()
        layer0 = np.random.default_rng(3).normal(size=(enc.adj.node_count, 3))
        assert propagate(layer0, loaded.adj, 2).tobytes() == propagate(layer0, enc.adj, 2).tobytes()
        items = np.arange(dataset.n_items)
        for u in range(dataset.n_users):
            np.testing.assert_array_equal(score(loaded, u, items), score(enc, u, items))

    def test_embed_hardness_round_trip(self, tmp_path):
        enc = build_encoder("mf", 4, 5, 3, tau=0.5, seed=3)
        hardness = EmbedHardness.init(4, 5, 3, seed=3)
        hardness.user_table.values[:] = np.random.default_rng(4).normal(size=(4, 3))
        path = tmp_path / "h.ckpt"
        save_checkpoint(path, enc, hardness)
        _, loaded = load_checkpoint(path)
        assert loaded.kind == "embed"
        np.testing.assert_array_equal(loaded.user_table.values, hardness.user_table.values)
        np.testing.assert_array_equal(loaded.item_table.values, hardness.item_table.values)

    def test_mlp_hardness_round_trip(self, tmp_path):
        enc = build_encoder("mf", 4, 5, 6, tau=0.5, seed=5)
        hardness = MlpHardness.init(4, 5, 6, seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, enc, hardness)
        _, loaded = load_checkpoint(path)
        assert loaded.kind == "mlp"
        for name, arr in hardness.param_arrays().items():
            np.testing.assert_array_equal(loaded.param_arrays()[name], arr)


def counting(*shape, start):
    """start/4, (start + 1)/4, ... in `shape`: fixed values, not an rng's, that
    differ across arrays and hold fractions."""
    return (start + np.arange(math.prod(shape), dtype=np.float64)).reshape(shape) / 4


class TestFormatV1:
    """The v1 bytes, pinned: the magic line, the header line spelled out, then
    each array's <f8 bytes in directory order. Every model has 2 users, 3
    items and dim 2."""

    USERS, ITEMS = counting(2, 2, start=0), counting(3, 2, start=4)

    def saved(self, tmp_path, enc, hardness=None):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc, hardness)
        return path.read_bytes()

    def file(self, header, *arrays):
        return (b"ADVRECKPT1\n" + header.encode() + b"\n"
                + b"".join(arr.astype("<f8").tobytes() for arr in arrays))

    def mf(self):
        return Encoder("mf", EmbeddingTable(self.USERS), EmbeddingTable(self.ITEMS), tau=0.5)

    def test_mf_without_hardness(self, tmp_path):
        assert self.saved(tmp_path, self.mf()) == self.file(
            '{"arrays":[{"name":"user_values","shape":[2,2]},'
            '{"name":"item_values","shape":[3,2]}],'
            '"encoder":{"dim":2,"kind":"mf","layers":0,"n_items":3,"n_users":2,"tau":0.5},'
            '"format":1,"hardness":null}',
            self.USERS, self.ITEMS)

    def test_lightgcn_encoder(self, tmp_path):
        adj = build_norm_adjacency(2, 3, [[0, 0], [1, 2], [0, 1]])
        enc = Encoder("lightgcn", EmbeddingTable(self.USERS), EmbeddingTable(self.ITEMS),
                      tau=0.25, layers=2, adj=adj)
        assert self.saved(tmp_path, enc) == self.file(
            '{"arrays":[{"name":"user_values","shape":[2,2]},'
            '{"name":"item_values","shape":[3,2]}],'
            '"encoder":{"dim":2,"kind":"lightgcn","layers":2,"n_items":3,"n_users":2,"tau":0.25},'
            '"format":1,"hardness":null}',
            self.USERS, self.ITEMS)

    def test_embed_hardness_follows_by_name(self, tmp_path):
        adv_user, adv_item = counting(2, 3, start=10), counting(3, 3, start=16)
        hardness = EmbedHardness.from_arrays(adv_user=adv_user, adv_item=adv_item)
        assert [name for name, _ in EmbedHardness.LAYOUT] == ["adv_user", "adv_item"]
        # adv_item before adv_user: sorted by name, not in LAYOUT order
        assert self.saved(tmp_path, self.mf(), hardness) == self.file(
            '{"arrays":[{"name":"user_values","shape":[2,2]},'
            '{"name":"item_values","shape":[3,2]},'
            '{"name":"hardness.adv_item","shape":[3,3]},'
            '{"name":"hardness.adv_user","shape":[2,3]}],'
            '"encoder":{"dim":2,"kind":"mf","layers":0,"n_items":3,"n_users":2,"tau":0.5},'
            '"format":1,"hardness":{"kind":"embed"}}',
            self.USERS, self.ITEMS, adv_item, adv_user)

    def test_mlp_hardness_follows_by_name(self, tmp_path):
        w_user, b_user = counting(3, 2, start=10), counting(3, start=16)
        w_item, b_item = counting(3, 2, start=19), counting(3, start=25)
        hardness = MlpHardness.from_arrays(w_user=w_user, b_user=b_user,
                                           w_item=w_item, b_item=b_item)
        assert self.saved(tmp_path, self.mf(), hardness) == self.file(
            '{"arrays":[{"name":"user_values","shape":[2,2]},'
            '{"name":"item_values","shape":[3,2]},'
            '{"name":"hardness.b_item","shape":[3]},'
            '{"name":"hardness.b_user","shape":[3]},'
            '{"name":"hardness.w_item","shape":[3,2]},'
            '{"name":"hardness.w_user","shape":[3,2]}],'
            '"encoder":{"dim":2,"kind":"mf","layers":0,"n_items":3,"n_users":2,"tau":0.5},'
            '"format":1,"hardness":{"kind":"mlp"}}',
            self.USERS, self.ITEMS, b_item, b_user, w_item, w_user)


class TestCompatibility:
    def test_dim_mismatch_rejected(self, tmp_path):
        enc = build_encoder("mf", 5, 7, 4, tau=0.3, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc)
        other = tiny_dataset(n_users=9, n_items=7, seed=6)
        with pytest.raises(IncompatibleCheckpoint):
            load_checkpoint(path, other)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(IncompatibleCheckpoint):
            load_checkpoint(path)

    def test_graph_checkpoint_requires_dataset(self, tmp_path):
        dataset = tiny_dataset(n_users=5, n_items=6, seed=7)
        enc = build_encoder("lightgcn", dataset.n_users, dataset.n_items, 3,
                            tau=0.4, seed=7, layers=2, train_pairs=dataset.train_pairs)
        path = tmp_path / "gcn.ckpt"
        save_checkpoint(path, enc)
        with pytest.raises(IncompatibleCheckpoint):
            load_checkpoint(path)


def saved_parts(tmp_path, hardness=None):
    """Save a 4-user, 5-item, dim-3 MF model; return its path, parsed header
    and array bytes."""
    enc = build_encoder("mf", 4, 5, 3, tau=0.5, seed=8)
    model = {None: None,
             "embed": lambda: EmbedHardness.init(4, 5, 2, seed=8),
             "mlp": lambda: MlpHardness.init(4, 5, 3, seed=8)}[hardness]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, enc, model and model())
    header_line, data = path.read_bytes()[len(MAGIC):].split(b"\n", 1)
    return path, json.loads(header_line), data


def shapes(**by_name):
    """Header edit that sets the shapes of the named arrays."""
    def edit(header):
        for entry in header["arrays"]:
            entry["shape"] = by_name.get(entry["name"].replace(".", "_"), entry["shape"])
        return header
    return edit


def field(section, key, value):
    def edit(header):
        header[section][key] = value
        return header
    return edit


class TestMalformedFile:
    """Every file that save_checkpoint could not have written is rejected
    with IncompatibleCheckpoint naming the file."""

    @pytest.mark.parametrize("hardness,edit", [
        (None, lambda h: {"format": 1}),
        (None, lambda h: [1, 2]),
        (None, lambda h: 1),
        (None, lambda h: {**h, "encoder": None}),
        (None, lambda h: {**h, "arrays": h["arrays"][:1]}),
        (None, lambda h: {**h, "arrays": [1, 2]}),
        (None, field("encoder", "kind", "svd")),
        (None, field("encoder", "tau", "0.5")),
        (None, field("encoder", "tau", True)),
        (None, field("encoder", "tau", False)),
        (None, field("encoder", "n_users", -4)),
        (None, shapes(user_values=[-4, -3])),
        (None, shapes(user_values=[5, 3], item_values=[4, 3])),   # same byte count
        (None, shapes(user_values=[4, 3, 1])),
        (None, shapes(user_values=[4, 3.0])),
        (None, field("encoder", "dim", 2)),
        (None, field("encoder", "layers", 2)),
        (None, lambda h: {**h, "hardness": "embed"}),
        ("embed", shapes(hardness_adv_user=[4, 3])),
        ("embed", shapes(hardness_adv_user=[5, 2], hardness_adv_item=[4, 2])),
        ("embed", field("hardness", "kind", "mlp")),
        ("mlp", shapes(hardness_w_user=[4, 2])),
        ("mlp", shapes(hardness_b_user=[3])),
        ("mlp", field("hardness", "kind", ["mlp"])),
        (None, lambda h: b"\xff not json"),
        (None, lambda h: {**h, "format": 2}),
    ], ids=["format-only", "json-list", "json-number", "encoder-null", "directory-short",
             "directory-not-objects", "unknown-kind", "tau-string", "tau-true", "tau-false",
             "negative-n-users",
             "negative-shape", "shapes-swapped", "extra-axis", "float-axis",
             "dim-mismatch", "mf-layers", "hardness-string", "embed-width-mismatch",
             "embed-users-items-swapped", "embed-labelled-mlp", "mlp-dim-mismatch",
             "mlp-latent-mismatch", "mlp-kind-list", "not-json", "format-2"])
    def test_bad_header_rejected(self, tmp_path, hardness, edit):
        path, header, data = saved_parts(tmp_path, hardness)
        line = edit(header)  # a JSON value, or raw bytes
        line = line if isinstance(line, bytes) else json.dumps(line).encode()
        path.write_bytes(MAGIC + line + b"\n" + data)
        with pytest.raises(IncompatibleCheckpoint, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [slice(0, -1), slice(0, -8), slice(0, 0)])
    def test_short_data_rejected(self, tmp_path, cut):
        path, header, data = saved_parts(tmp_path)
        path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + data[cut])
        with pytest.raises(IncompatibleCheckpoint, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("tau", [b"Infinity", b"-Infinity", b"NaN", b"1e400", b"1" + b"0" * 400],
                             ids=["inf", "minus-inf", "nan", "1e400", "int-beyond-float"])
    def test_non_finite_tau_rejected(self, tmp_path, tau):
        path, _, _ = saved_parts(tmp_path)
        raw = path.read_bytes()
        assert raw.count(b'"tau":0.5}') == 1
        path.write_bytes(raw.replace(b'"tau":0.5}', b'"tau":' + tau + b"}"))
        with pytest.raises(IncompatibleCheckpoint, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0", b"\n", bytes(8)])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path, _, _ = saved_parts(tmp_path, "embed")
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(IncompatibleCheckpoint, match=re.escape(str(path))):
            load_checkpoint(path)


class TestNonFiniteValues:
    """A file whose arrays hold NaN or Inf is rejected at load with
    IncompatibleCheckpoint naming the file and the array."""

    def test_nan_item_value_is_rejected_before_evaluation(self, tmp_path):
        dataset = tiny_dataset(n_users=3, n_items=8, seed=9)
        enc = build_encoder("mf", dataset.n_users, dataset.n_items, 4, tau=0.5, seed=9)
        enc.item_table.values[2, 1] = np.nan
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc)
        with pytest.raises(IncompatibleCheckpoint,
                           match=re.escape(f"{path}: array item_values holds NaN or Inf")):
            loaded, _ = load_checkpoint(path, dataset)
            evaluate_split(loaded, dataset, "test", 5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("hardness", [None, "embed", "mlp"])
    def test_every_array_is_checked(self, tmp_path, hardness, value):
        path, header, data = saved_parts(tmp_path, hardness)
        values = np.frombuffer(data, dtype="<f8")
        end = 0
        for entry in header["arrays"]:
            end += math.prod(entry["shape"])
            bad = values.copy()
            bad[end - 1] = value
            path.write_bytes(MAGIC + json.dumps(header).encode() + b"\n" + bad.tobytes())
            with pytest.raises(IncompatibleCheckpoint,
                               match=re.escape(f"{path}: array {entry['name']} holds")):
                load_checkpoint(path)


class HalfWritable:
    """A hardness stand-in whose first array cannot be written as float64,
    so a save fails after the header and the encoder arrays."""

    kind = "embed"

    def param_arrays(self):
        return {"adv_item": np.full((5, 2), "x", dtype=object), "adv_user": np.zeros((4, 2))}


class TestAtomicSave:
    def test_failed_save_leaves_old_file(self, tmp_path):
        path, _, _ = saved_parts(tmp_path, "embed")
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, build_encoder("mf", 4, 5, 3, tau=0.5, seed=9), HalfWritable())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_replaces_old_file(self, tmp_path):
        path, _, _ = saved_parts(tmp_path, "mlp")
        enc = build_encoder("mf", 4, 5, 3, tau=0.5, seed=10)
        save_checkpoint(path, enc)
        loaded, hardness = load_checkpoint(path)
        assert hardness is None
        assert loaded.user_table.values.tobytes() == enc.user_table.values.tobytes()
        assert list(tmp_path.iterdir()) == [path]


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def settle(tmp_path_factory):
    """Let the close of the file the last save replaced finish: a save
    waits for it first, and a save to a new path holds nothing."""
    def run():
        save_checkpoint(tmp_path_factory.mktemp("settle") / "model.ckpt",
                        build_encoder("mf", 2, 2, 1, tau=1.0, seed=0))
    return run


class TestNoDescriptorLeak:
    def test_failed_save_keeps_count_and_old_file(self, tmp_path, settle):
        path, _, _ = saved_parts(tmp_path, "embed")
        before = path.read_bytes()
        settle()
        fds = open_fds()
        with pytest.raises(ValueError):
            save_checkpoint(path, build_encoder("mf", 4, 5, 3, tau=0.5, seed=9), HalfWritable())
        assert open_fds() == fds
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_directory_target_raises_and_leaks_nothing(self, tmp_path, settle):
        path = tmp_path / "model.ckpt"
        path.mkdir()
        settle()
        fds = open_fds()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(path, build_encoder("mf", 4, 5, 3, tau=0.5, seed=9))
        assert open_fds() == fds
        assert list(tmp_path.iterdir()) == [path] and not any(path.iterdir())

    def test_fifo_target_is_replaced_without_waiting_for_a_writer(self, tmp_path, settle):
        path = tmp_path / "model.ckpt"
        os.mkfifo(path)
        enc = build_encoder("mf", 4, 5, 3, tau=0.5, seed=9)
        settle()
        fds = open_fds()
        start = time.monotonic()
        # TimeoutError is an OSError, which the save takes as a target it
        # cannot hold open, so the time shows a blocked open.
        with deadline(5):
            save_checkpoint(path, enc)
        assert time.monotonic() - start < 4
        settle()
        assert open_fds() == fds
        assert load_checkpoint(path)[0].user_table.values.tobytes() == enc.user_table.values.tobytes()

    def test_save_to_new_path_holds_nothing(self, tmp_path, settle):
        settle()
        fds = open_fds()
        save_checkpoint(tmp_path / "model.ckpt", build_encoder("mf", 4, 5, 3, tau=0.5, seed=9))
        assert open_fds() == fds

    def test_replaced_file_is_released(self, tmp_path, settle):
        settle()
        fds = open_fds()
        path = tmp_path / "model.ckpt"
        for seed in range(4):
            save_checkpoint(path, build_encoder("mf", 40, 50, 8, tau=0.5, seed=seed))
            assert open_fds() <= fds + 1
            releases = [t for t in threading.enumerate() if t.name == "checkpoint-release"]
            assert len(releases) <= 1
        settle()
        assert open_fds() == fds

    def test_back_to_back_saves_leave_the_second_model(self, tmp_path):
        first = build_encoder("mf", 40, 50, 8, tau=0.5, seed=1)
        second = build_encoder("mf", 40, 50, 8, tau=0.5, seed=2)
        path, reference = tmp_path / "model.ckpt", tmp_path / "reference.ckpt"
        save_checkpoint(path, first)
        save_checkpoint(path, second)
        save_checkpoint(reference, second)
        assert path.read_bytes() == reference.read_bytes()
        assert sorted(tmp_path.iterdir()) == [path, reference]


# Saves the two models of TestSaveInAnotherProcess.MODELS to the path argv[1]
# in turn, argv[2] saves in all (without end if negative); prints "ready" once
# the file first exists.
SAVE_LOOP = """
import sys
from advrec.checkpoint import save_checkpoint
from advrec.encoder import build_encoder
models = [build_encoder("mf", 300, 200, 16, tau=0.5, seed=seed) for seed in (1, 2)]
save_checkpoint(sys.argv[1], models[0])
print("ready", flush=True)
turn = 1
while int(sys.argv[2]) < 0 or turn < int(sys.argv[2]):
    save_checkpoint(sys.argv[1], models[turn % 2])
    turn += 1
"""


def run_python(code, *args, **kwargs):
    """Start `python -c code args` with this advrec importable."""
    src = str(Path(advrec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)], env=env,
                            stdin=subprocess.DEVNULL, **kwargs)


class TestSaveInAnotherProcess:
    MODELS = [build_encoder("mf", 300, 200, 16, tau=0.5, seed=seed) for seed in (1, 2)]

    def is_one_of_the_models(self, path):
        loaded, _ = load_checkpoint(path)
        return any(loaded.user_table.values.tobytes() == m.user_table.values.tobytes()
                   and loaded.item_table.values.tobytes() == m.item_table.values.tobytes()
                   for m in self.MODELS)

    def test_kill_during_saves_leaves_a_loadable_file(self, tmp_path):
        delays = random.Random(21)
        for trial in range(5):
            path = tmp_path / f"trial{trial}" / "model.ckpt"
            path.parent.mkdir()
            with run_python(SAVE_LOOP, path, -1, stdout=subprocess.PIPE) as child:
                try:
                    assert child.stdout.readline() == b"ready\n"
                    time.sleep(delays.uniform(0.0, 0.3))
                finally:
                    child.send_signal(signal.SIGKILL)
                    child.wait(timeout=60)
            assert child.returncode == -signal.SIGKILL
            assert self.is_one_of_the_models(path), trial

    def test_exit_after_replacing_save_returns_0(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with run_python(SAVE_LOOP, path, 2, stdout=subprocess.DEVNULL) as child:
            assert child.wait(timeout=60) == 0
        loaded, _ = load_checkpoint(path)
        assert loaded.user_table.values.tobytes() == self.MODELS[1].user_table.values.tobytes()
        assert list(tmp_path.iterdir()) == [path]
