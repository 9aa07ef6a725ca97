"""Checkpoint format: bit-exact round-trips and compatibility errors."""

import json
import re

import numpy as np
import pytest

from advrec.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from advrec.encoder import build_encoder, score
from advrec.errors import IncompatibleCheckpoint
from advrec.loss import EmbedHardness, MlpHardness
from advrec.numkit import propagate

from conftest import tiny_dataset


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
    ], ids=["format-only", "json-list", "json-number", "encoder-null", "directory-short",
             "directory-not-objects", "unknown-kind", "tau-string", "tau-true", "tau-false",
             "negative-n-users",
             "negative-shape", "shapes-swapped", "extra-axis", "float-axis",
             "dim-mismatch", "mf-layers", "hardness-string", "embed-width-mismatch",
             "embed-users-items-swapped", "embed-labelled-mlp", "mlp-dim-mismatch",
             "mlp-latent-mismatch", "mlp-kind-list"])
    def test_bad_header_rejected(self, tmp_path, hardness, edit):
        path, header, data = saved_parts(tmp_path, hardness)
        path.write_bytes(MAGIC + json.dumps(edit(header)).encode() + b"\n" + data)
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
