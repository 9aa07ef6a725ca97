"""Ingestion, negative sampling, long-tail split, and synthetic generator tests."""

import signal
from dataclasses import replace

import numpy as np
import pytest

from advrec import dataio
from advrec.dataio import (
    SPLITS,
    InteractionSet,
    SyntheticSpec,
    gamma_quotas,
    gamma_split,
    generate_synthetic,
    load_interactions,
    read_pairs,
    sample_negatives,
    write_dataset,
)
from advrec.rng import substream
from advrec.trainer import TrainConfig, iter_batches
from advrec.errors import (
    BadParam,
    DegenerateSpec,
    EmptySplitError,
    EngineError,
    NoNegativesError,
    ParseError,
)

from conftest import deadline


def reference_sample_negatives(pos: set, n_items, n, rng):
    """Set-based sampler the array positives index replaced; makes the same
    rng calls, so it must return the same negatives."""
    if len(pos) > n_items // 2:
        cand = np.setdiff1d(np.arange(n_items, dtype=np.int64),
                            np.fromiter(pos, dtype=np.int64, count=len(pos)))
        return cand[rng.integers(0, len(cand), size=n)]
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        draws = rng.integers(0, n_items, size=max(8, int(1.3 * (n - filled)) + 4))
        ok = draws[[int(d) not in pos for d in draws]]
        take = min(len(ok), n - filled)
        out[filled:filled + take] = ok[:take]
        filled += take
    return out


def reference_rows(train: dict, n_items, users, n, rng):
    """reference_sample_negatives for each user in order, stacked."""
    return np.array([reference_sample_negatives(set(train[int(u)]), n_items, n, rng)
                     for u in users], dtype=np.int64).reshape(len(users), n)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def synthetic_files(result):
    """The pairs `advrec generate` writes in biased-exposure mode."""
    return {**{name: result.dataset.pairs(name) for name in SPLITS},
            "planted_fn": result.planted_fn}


class TestLoadInteractions:
    def test_counts_and_popularity(self, tmp_path):
        train = write(tmp_path, "train.tsv", "0\t0\n0\t1\n1\t0\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        ds = load_interactions(train, valid, test)
        assert ds.n_users == 2 and ds.n_items == 2
        np.testing.assert_array_equal(ds.item_popularity, [2, 1])

    def test_dense_remap_first_seen_order(self, tmp_path):
        train = write(tmp_path, "train.tsv", "5\t9\n9\t5\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        ds = load_interactions(train, valid, test)
        # users {5, 9} -> {0, 1}, items {9, 5} -> {0, 1}, in first-seen order
        np.testing.assert_array_equal(ds.train_pairs, [[0, 0], [1, 1]])

    def test_duplicate_raises(self, tmp_path):
        train = write(tmp_path, "train.tsv", "0\t0\n0\t0\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        with pytest.raises(ParseError, match="duplicate"):
            load_interactions(train, valid, test)

    def test_malformed_line_reports_number(self, tmp_path):
        train = write(tmp_path, "train.tsv", "0\t0\nnot-a-pair\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        with pytest.raises(ParseError, match=":2:"):
            load_interactions(train, valid, test)

    def test_id_beyond_int64_reports_line(self, tmp_path):
        train = write(tmp_path, "train.tsv", f"0\t0\n1\t{2**63}\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        with pytest.raises(ParseError, match=":2:"):
            load_interactions(train, valid, test)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        train = write(tmp_path, "train.tsv", "# header\n\n0\t1\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        ds = load_interactions(train, valid, test)
        assert len(ds.train_pairs) == 1

    def test_empty_train_raises(self, tmp_path):
        train = write(tmp_path, "train.tsv", "# nothing\n")
        valid = write(tmp_path, "valid.tsv", "0\t0\n")
        test = write(tmp_path, "test.tsv", "")
        with pytest.raises(EmptySplitError):
            load_interactions(train, valid, test)

    def test_ids_shared_across_splits(self, tmp_path):
        train = write(tmp_path, "train.tsv", "0\t0\n")
        valid = write(tmp_path, "valid.tsv", "0\t7\n")
        test = write(tmp_path, "test.tsv", "3\t7\n")
        ds = load_interactions(train, valid, test)
        assert ds.n_users == 2 and ds.n_items == 2
        # popularity counts train only
        assert ds.item_popularity.sum() == len(ds.train_pairs)

    def test_test_pair_also_in_train_raises(self, tmp_path):
        train = write(tmp_path, "train.tsv", "0\t0\n1\t1\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "0\t5\n0\t0\n")
        with pytest.raises(BadParam, match="test"):
            load_interactions(train, valid, test)


def reference_read_pairs(path):
    """A line-by-line parser of the TSV format: the reference for every
    accepted pair and every ParseError with its line number."""
    pairs = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(path, line_no, "expected 'user<TAB>item'")
            try:
                if any("_" in f or not all(c.isascii() or c.isspace() for c in f)
                       for f in fields):
                    raise ValueError("int() also reads '_' and non-ASCII digits")
                u, i = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(path, line_no, f"non-integer id in {fields!r}")
            if u < 0 or i < 0:
                raise ParseError(path, line_no, "negative id")
            if u > 2**63 - 1 or i > 2**63 - 1:
                raise ParseError(path, line_no, "id above 2**63 - 1")
            if (u, i) in seen:
                raise ParseError(path, line_no, f"duplicate pair ({u}, {i})")
            seen.add((u, i))
            pairs.append((u, i))
    return pairs


def reference_load(paths):
    """load_interactions on the line parser, remapping with one
    dict.setdefault per id."""
    raw = [reference_read_pairs(p) for p in paths]
    if not raw[0]:
        raise EmptySplitError(f"train split {paths[0]} has no interactions")
    user_map, item_map = {}, {}
    splits = [np.asarray([(user_map.setdefault(u, len(user_map)),
                           item_map.setdefault(i, len(item_map))) for u, i in pairs],
                         dtype=np.int64).reshape(-1, 2) for pairs in raw]
    return InteractionSet(len(user_map), len(item_map), *splits, user_map, item_map)


def outcome(load, *args):
    """What load(*args) returns, or the type and message of what it raises."""
    try:
        return load(*args)
    except EngineError as exc:
        return type(exc), str(exc)


def assert_loads_like_reference(paths):
    """load_interactions and read_pairs give the reference's arrays, sizes
    and remap dicts in order, or raise its exception with its message."""
    want = outcome(reference_load, paths)
    got = outcome(load_interactions, *paths)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.n_users, got.n_items) == (want.n_users, want.n_items)
        assert list(got.user_remap.items()) == list(want.user_remap.items())
        assert list(got.item_remap.items()) == list(want.item_remap.items())
        for name in ("train", "valid", "test"):
            assert got.pairs(name).dtype == np.int64
            np.testing.assert_array_equal(got.pairs(name), want.pairs(name))
    for path in paths:
        want = outcome(reference_read_pairs, path)
        got = outcome(read_pairs, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == np.int64 and got.shape == (len(want), 2)
            assert got.tolist() == [list(p) for p in want]


def random_ids(rng, n):
    """n distinct ids of 1 to 18 digits in random order, 0 and 10**18 - 1
    among them."""
    ids = {0, 10**18 - 1}
    while len(ids) < n:
        digits = int(rng.integers(1, 19))
        ids.add(int(rng.integers(10 ** (digits - 1), 10**digits)))
    return rng.permutation(sorted(ids))


def write_strict(path, pairs, rng, final_newline=True):
    """Pairs as "digits<TAB>digits" lines, some ids with leading zeros
    (never beyond 18 digits)."""
    def field(v):
        pad = int(rng.integers(0, 19 - len(str(v)))) if rng.random() < 0.2 else 0
        return "0" * pad + str(v)
    text = "\n".join(f"{field(u)}\t{field(i)}" for u, i in pairs)
    path.write_bytes((text + ("\n" if final_newline and pairs else "")).encode())
    return path


class TestStrictFiles:
    """Files of exactly "digits<TAB>digits" lines load as the line parser
    loads them."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_file_sets_equal_line_parser(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        users = rng.permutation(random_ids(rng, 40))
        items = rng.permutation(random_ids(rng, 30))
        keys = rng.choice(len(users) * len(items), size=int(rng.integers(1, 300)), replace=False)
        pool = [(int(users[k // len(items)]), int(items[k % len(items)])) for k in keys]
        cut_valid, cut_test = sorted(rng.integers(1, len(pool) + 1, size=2))
        splits = pool[:cut_valid], pool[cut_valid:cut_test], pool[cut_test:]
        paths = [write_strict(tmp_path / f"{name}.tsv", pairs, rng,
                              final_newline=bool(rng.random() < 0.5))
                 for name, pairs in zip(("train", "valid", "test"), splits)]
        assert_loads_like_reference(paths)

    def test_edge_ids_and_empty_splits(self, tmp_path):
        train = write(tmp_path, "train.tsv",
                      f"999999999999999999\t0\n000000000000000007\t{10**17}\n7\t00\n5\t3")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "")
        assert_loads_like_reference([train, valid, test])
        ds = load_interactions(train, valid, test)
        assert list(ds.user_remap) == [10**18 - 1, 7, 5]
        assert list(ds.item_remap) == [0, 10**17, 3]

    @pytest.fixture
    def no_line_parser(self, monkeypatch):
        def line_parser(path):
            raise AssertionError(f"{path} went through the line parser")
        monkeypatch.setattr(dataio, "_read_pairs", line_parser)

    def test_files_the_engine_writes_skip_the_line_parser(self, tmp_path, no_line_parser):
        result = generate_synthetic(SyntheticSpec(n_users=60, n_items=40, seed=7))
        files = write_dataset(tmp_path, synthetic_files(result))
        ds = load_interactions(files["train"], files["valid"], files["test"])
        assert len(ds.train_pairs) and len(read_pairs(files["planted_fn"]))

    @pytest.mark.parametrize("text", ["", "1\t2", f"{10**18 - 1}\t000000000000000001\n3\t4\n"])
    def test_strict_file_skips_the_line_parser(self, tmp_path, no_line_parser, text):
        assert len(read_pairs(write(tmp_path, "pairs.tsv", text))) == text.count("\t")

    def test_empty_train_file_raises(self, tmp_path):
        train = write(tmp_path, "train.tsv", "")
        valid = write(tmp_path, "valid.tsv", "0\t0\n")
        test = write(tmp_path, "test.tsv", "")
        with pytest.raises(EmptySplitError):
            load_interactions(train, valid, test)

    def test_valid_pair_also_in_train_raises(self, tmp_path):
        train = write(tmp_path, "train.tsv", "10\t20\n11\t21\n")
        valid = write(tmp_path, "valid.tsv", "11\t20\n11\t21\n")
        test = write(tmp_path, "test.tsv", "")
        with pytest.raises(BadParam, match="valid"):
            load_interactions(train, valid, test)

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_duplicate_reports_line(self, tmp_path, split):
        text = {"train": "1\t2\n3\t4\n", "valid": "5\t6\n", "test": "7\t8\n"}
        text[split] += "9\t9\n" + text[split].splitlines()[0]
        paths = [write(tmp_path, f"{name}.tsv", text[name]) for name in text]
        assert_loads_like_reference(paths)
        line_no = len(text[split].splitlines())
        with pytest.raises(ParseError, match=f"{split}.tsv:{line_no}: duplicate"):
            load_interactions(*paths)

    @pytest.mark.parametrize("texts,raised", [
        (("1\t2\n3\t4\n", "3\t4\n", "7\t8\n9\t9\n7\t8\n"), "test.tsv:3: duplicate"),
        (("1\t2\n3\t4\n1\t2\n", "# hand-written\n5\t6\n", ""), "train.tsv:3: duplicate"),
        (("# hand-written\n1\t2\n", "5\t6\n5\t6\n", "7\t8\n"), "valid.tsv:2: duplicate"),
        (("1\t2\n1\t2\n", "# hand-written\n5\t6\t7\n", ""), "train.tsv:2: duplicate"),
        (("# hand-written\n1\t2\n1\t2 x\n", "5\t6\n5\t6\n", ""), "train.tsv:3: non-integer"),
        (("1\t2\n", "# hand-written\n-5\t6\n", "7\t8\n7\t8\n"), "valid.tsv:2: negative id"),
        (("", "# hand-written\n5\t6\n", "7\t8\n7\t8\n"), "test.tsv:2: duplicate"),
        (("# hand-written\n", "5\t6\n5\t6\n", ""), "valid.tsv:2: duplicate"),
    ], ids=["after-an-overlap", "strict-train", "strict-valid", "before-a-bad-line",
            "after-a-bad-line", "after-a-bad-id", "empty-train", "commented-empty-train"])
    def test_strict_duplicate_raises_where_the_line_parser_would(self, tmp_path, texts, raised):
        # in file order, before a later file's error, before the empty train
        # split and before a valid pair that is also a train pair, though
        # the dense keys show that overlap first
        paths = [write(tmp_path, f"{name}.tsv", text)
                 for name, text in zip(("train", "valid", "test"), texts)]
        assert_loads_like_reference(paths)
        with pytest.raises(ParseError, match=raised):
            load_interactions(*paths)

    def test_strict_duplicate_outranks_a_missing_later_file(self, tmp_path):
        train = write(tmp_path, "train.tsv", "1\t2\n1\t2\n")
        with pytest.raises(ParseError, match="train.tsv:2: duplicate"):
            load_interactions(train, tmp_path / "absent.tsv", tmp_path / "absent.tsv")

    def test_later_files_first_see_ids_out_of_sorted_order(self, tmp_path):
        paths = [write(tmp_path, "train.tsv", "50\t500\n7\t900\n50\t100\n"),
                 write(tmp_path, "valid.tsv", "# hand-written\n90\t800\n3\t100\n7\t5\n"),
                 write(tmp_path, "test.tsv", "60\t700\n1\t2\n90\t500\n")]
        assert_loads_like_reference(paths)
        ds = load_interactions(*paths)
        assert list(ds.user_remap) == [50, 7, 90, 3, 60, 1]
        assert list(ds.item_remap) == [500, 900, 100, 800, 5, 700, 2]
        assert ds.test_pairs.tolist() == [[4, 5], [5, 6], [2, 0]]


FALLBACK_FORMS = {
    "comment": "# written by hand\n{a}\n",
    "blank-line": "{a}\n\n",
    "crlf": "{a}\r\n77777\t88888\r\n",
    "padded-id": "{a}\n 77777\t88888 \n",
    "plus-sign": "{a}\n+77777\t88888\n",
    "underscore": "{a}\n77_777\t88888\n",
    "underscore-collision": "{a}\n77777\t88888\n77_777\t88888\n",
    "19-digit-id": "{a}\n1234567890123456789\t88888\n",
    "19-digit-leading-zero": "{a}\n0000000000000077777\t88888\n",
    "int64-max": f"{{a}}\n{2**63 - 1}\t88888\n",
    "int64-max-plus-1": f"{{a}}\n{2**63}\t88888\n",
    "negative-id": "{a}\n-77777\t88888\n",
    "utf8-bom": "\ufeff{a}\n",
    "three-fields": "{a}\n77777\t88888\t1\n",
    "one-field": "{a}\n77777\n",
    "empty-field": "{a}\n\t88888\n",
    "non-ascii-digit": "{a}\n\u0667\t88888\n",
    "duplicate-in-other-form": "{a}\n {a}\n",
}
NON_INTEGER_FORMS = ("underscore", "underscore-collision", "non-ascii-digit")


@pytest.mark.parametrize("split", ["train", "valid", "test"])
@pytest.mark.parametrize("form", FALLBACK_FORMS)
def test_fallback_form_equals_line_parser(tmp_path, form, split):
    """Each file that is not strict gives the line parser's pairs, or its
    exact ParseError with its line number; the other splits stay strict."""
    base = {"train": "1\t2\n3\t4", "valid": "5\t6", "test": "7\t8"}
    text = {name: line + "\n" for name, line in base.items()}
    text[split] = FALLBACK_FORMS[form].format(a=base[split])
    paths = []
    for name, body in text.items():
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(body.encode("utf-8"))
        paths.append(path)
    assert_loads_like_reference(paths)
    if form in NON_INTEGER_FORMS:
        with pytest.raises(ParseError, match="non-integer id"):
            load_interactions(*paths)


class TestInteractionSet:
    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_pair_also_in_train_raises(self, split):
        pairs = {"valid_pairs": np.zeros((0, 2)), "test_pairs": np.zeros((0, 2))}
        pairs[f"{split}_pairs"] = np.array([[1, 2], [0, 1]])
        with pytest.raises(BadParam, match=split):
            InteractionSet(2, 3, np.array([[0, 0], [0, 1]]), **pairs)

    @pytest.mark.parametrize("split,pair,side", [
        ("train", [-1, 0], "user"), ("valid", [2, 0], "user"),
        ("test", [0, -1], "item"), ("train", [1, 3], "item"),
    ])
    def test_id_out_of_range_raises(self, split, pair, side):
        pairs = {f"{name}_pairs": np.zeros((0, 2)) for name in ("train", "valid", "test")}
        pairs[f"{split}_pairs"] = np.array([[0, 0], pair]) if split == "train" else np.array([pair])
        with pytest.raises(BadParam, match=f"{split}: {side} id out of range"):
            InteractionSet(2, 3, **pairs)

    def test_duplicate_within_split_raises(self):
        with pytest.raises(BadParam, match="duplicate"):
            InteractionSet(2, 3, np.array([[0, 0], [1, 2], [0, 0]]),
                           np.zeros((0, 2)), np.zeros((0, 2)))

    def test_positives_are_each_users_pairs_ascending(self):
        rng = np.random.default_rng(5)
        n_users, n_items = 9, 13
        pool = rng.permutation(n_users * n_items)[:60]
        pool = pool[pool // n_items != 4]  # user 4 has no pair in any split
        pairs = np.stack([pool // n_items, pool % n_items], axis=1)
        ds = InteractionSet(n_users, n_items, pairs[:40], pairs[40:48], pairs[48:])
        users = np.array([7, 4, 0, 7, 8, 2])
        for split in ("train", "valid", "test"):
            split_pairs = ds.pairs(split)
            for u in range(n_users):
                want = sorted(int(i) for v, i in split_pairs if v == u)
                assert ds.positives(u, split).tolist() == want
            items, owner = ds.positives_of(users, split)
            assert items.tolist() == [int(i) for u in users for i in ds.positives(u, split)]
            assert owner.tolist() == [k for k, u in enumerate(users)
                                      for _ in ds.positives(u, split)]
        assert len(ds.positives(4, "train")) == 0

    def test_positives_are_read_only(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.positives(0, "train")[0] = 1


def reference_remap_pairs(ds, pairs):
    """The per-pair dict loop that remap_pairs replaced."""
    out = []
    for u, i in np.asarray(pairs, dtype=np.int64).reshape(-1, 2):
        mu = ds.user_remap.get(int(u)) if ds.user_remap else int(u)
        mi = ds.item_remap.get(int(i)) if ds.item_remap else int(i)
        if mu is not None and mi is not None:
            out.append((mu, mi))
    return np.asarray(out, dtype=np.int64).reshape(-1, 2)


class TestRemapPairs:
    PAIRS = np.array([[905, 31], [17, 8], [4, 4], [905, 8], [-1, 31], [17, 2**40], [3, 31]])

    @pytest.mark.parametrize("user_remap,item_remap", [
        ({905: 0, 17: 2, 3: 1}, {8: 1, 31: 0, 4: 2}),   # both; unseen ids dropped
        ({905: 1, 17: 0}, None),                        # user ids only
        (None, {31: 1, 8: 0}),                          # item ids only
        (None, None),                                   # native ids
    ])
    @pytest.mark.parametrize("n_pairs", [7, 0])
    def test_equals_dict_loop(self, small_dataset, user_remap, item_remap, n_pairs):
        dataset = replace(small_dataset, user_remap=user_remap, item_remap=item_remap)
        pairs = self.PAIRS[:n_pairs]
        got = dataset.remap_pairs(pairs)
        want = reference_remap_pairs(dataset, pairs)
        assert got.dtype == np.int64 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_loaded_ids_round_trip(self, tmp_path):
        train = write(tmp_path, "train.tsv", "905\t31\n17\t8\n")
        valid = write(tmp_path, "valid.tsv", "")
        test = write(tmp_path, "test.tsv", "17\t31\n")
        ds = load_interactions(train, valid, test)
        np.testing.assert_array_equal(ds.remap_pairs([[17, 31], [905, 8], [5, 8]]),
                                      [[1, 0], [0, 1]])


class TestSampleNegatives:
    def test_single_candidate(self):
        ds = InteractionSet(1, 3, np.array([[0, 0], [0, 1]]),
                            np.zeros((0, 2)), np.zeros((0, 2)))
        sample = sample_negatives(ds, 0, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(sample.negatives, [2, 2, 2, 2])

    def test_uniform_frequency(self):
        # 12 items, 2 train positives -> 10 candidates; draws uniform within 3 sigma
        ds = InteractionSet(1, 12, np.array([[0, 0], [0, 1]]),
                            np.zeros((0, 2)), np.zeros((0, 2)))
        rng = np.random.default_rng(1)
        n = 100_000
        draws = sample_negatives(ds, 0, n, rng).negatives
        counts = np.bincount(draws, minlength=12)
        assert counts[0] == 0 and counts[1] == 0
        p = 1.0 / 10.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts[2:] - n * p) < 3 * sigma)

    def test_never_returns_train_positive(self, small_dataset):
        rng = np.random.default_rng(2)
        for u in range(small_dataset.n_users):
            negs = sample_negatives(small_dataset, u, 64, rng).negatives
            assert not (set(negs.tolist()) & set(small_dataset.positives(u, "train")))

    def test_exhausted_user_raises(self):
        ds = InteractionSet(1, 2, np.array([[0, 0], [0, 1]]),
                            np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(NoNegativesError):
            sample_negatives(ds, 0, 1, np.random.default_rng(3))

    def test_dense_user_path_uniform(self):
        # 3 of 4 items interacted: complement-enumeration path
        ds = InteractionSet(1, 4, np.array([[0, 0], [0, 1], [0, 2]]),
                            np.zeros((0, 2)), np.zeros((0, 2)))
        negs = sample_negatives(ds, 0, 50, np.random.default_rng(4)).negatives
        assert np.all(negs == 3)

    def test_matches_set_based_reference(self):
        # 40 items: user 0 has no train positive, user 1 a few (the lowest and
        # highest ids among them), user 2 exactly half (the rejection path's
        # limit) and user 3 more than half (the complement path).
        n_items = 40
        train = {0: [], 1: [0, 17, 39], 2: list(range(0, 40, 2)),
                 3: [i for i in range(n_items) if i % 4]}
        pairs = np.array([(u, i) for u, items in train.items() for i in items])
        ds = InteractionSet(4, n_items, pairs, np.zeros((0, 2)), np.zeros((0, 2)))
        for u, items in train.items():
            for seed, n in ((0, 1), (1, 7), (2, 100)):
                got = sample_negatives(ds, u, n, np.random.default_rng(seed)).negatives
                want = reference_sample_negatives(set(items), n_items, n,
                                                  np.random.default_rng(seed))
                np.testing.assert_array_equal(got, want)

    def test_deterministic_given_seed(self, small_dataset):
        a = sample_negatives(small_dataset, 0, 32, np.random.default_rng(9)).negatives
        b = sample_negatives(small_dataset, 0, 32, np.random.default_rng(9)).negatives
        np.testing.assert_array_equal(a, b)


def test_numpy_split_draws_equal_one_draw():
    """The batched sampler relies on this numpy property: integers() draws of
    one range give the same values and leave the same bit-generator state
    whether made in one call or split over several. Ranges include ones
    where Lemire rejection is frequent (just above a power of two)."""
    for seed in range(20):
        for high in (3, 40, 1000, 2**31 + 1, 2**62 + 1):
            split, whole = np.random.default_rng(seed), np.random.default_rng(seed)
            values = np.concatenate([split.integers(0, high, size=a) for a in (1, 7, 0, 30)])
            assert np.array_equal(values, whole.integers(0, high, size=38)), (
                f"numpy changed how integers() consumes the stream (high={high}); "
                "dataio.sample_negatives no longer replays the per-row sampler")
            assert split.bit_generator.state == whole.bit_generator.state, (
                f"numpy changed the state integers() leaves (high={high}); "
                "dataio.sample_negatives no longer replays the per-row sampler")


class TestSampleNegativesBatch:
    """An array of users gives the per-row sampler's rows, stacked, and
    leaves the rng where one call per row in order would."""

    # 40 items: no positive, a few (the lowest and highest ids), exactly half
    # (the rejection path's limit; sent to the per-row path up front, since
    # it is expected to refill at n = 16 and 100), more than half (the
    # complement path), and a third (expected to keep just over 16 of its
    # first 24 draws, so it is found to refill after drawing about half the
    # time).
    N_ITEMS = 40
    TRAIN = {0: [], 1: [0, 17, 39], 2: list(range(0, 40, 2)),
             3: [i for i in range(40) if i % 4], 4: list(range(1, 40, 3))}

    def dataset(self, train=None, n_items=N_ITEMS):
        train = self.TRAIN if train is None else train
        pairs = np.array([(u, i) for u, items in train.items() for i in items])
        return InteractionSet(len(train), n_items, pairs.reshape(-1, 2),
                              np.zeros((0, 2)), np.zeros((0, 2)))

    def reference(self, users, n, rng):
        return np.stack([reference_sample_negatives(set(self.TRAIN[int(u)]), self.N_ITEMS,
                                                    n, rng) for u in users])

    @pytest.mark.parametrize("n", [1, 7, 16, 100])
    @pytest.mark.parametrize("users", [
        [1, 0, 1, 3, 1, 0],            # a dense row mid-batch
        [0, 1, 2, 1, 0, 2, 3, 3, 1],   # half-dense rows, two dense rows in a row
        [3, 1, 0],                     # dense first
        [1, 0, 3],                     # dense last
        [4, 0, 4, 4, 1, 4, 0, 4, 4],   # rows found to refill after drawing
        [4] * 4 + [1, 0] * 50 + [4],   # refill rows, then more rows than the next block
    ])
    def test_matches_per_row_reference_on_one_rng(self, users, n):
        ds = self.dataset()
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives(ds, np.array(users), n, got_rng).negatives
            np.testing.assert_array_equal(got, self.reference(users, n, want_rng))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_no_train_pairs_matches_reference(self):
        ds = InteractionSet(3, 20, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
        assert len(ds.users_with_positives("train")) == 0
        users = np.array([0, 2, 1, 1, 0, 2])
        for seed, n in ((0, 1), (1, 7), (2, 30)):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives(ds, users, n, got_rng).negatives
            np.testing.assert_array_equal(got, reference_rows({0: [], 1: [], 2: []}, 20,
                                                              users, n, want_rng))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_random_datasets_match_reference(self):
        """200 seeded small datasets. Each user's positive count sits near 0,
        near n_items // 2 (the dense limit) or near the count above which a
        row is expected to keep fewer than n of its first draws."""
        for seed in range(200):
            g = np.random.default_rng([9, seed])
            n_items, n = int(g.integers(2, 81)), int(g.integers(1, 41))
            expected_short = n_items - n * n_items / max(8, int(1.3 * n) + 4)
            centres = (0, n_items // 2, expected_short)
            train = {}
            for u in range(int(g.integers(1, 9))):
                count = int(np.clip(round(centres[g.integers(3)]) + g.integers(-2, 3),
                                    0, n_items - 1))
                train[u] = np.sort(g.choice(n_items, count, replace=False)).tolist()
            ds = self.dataset(train, n_items)
            users = g.integers(0, len(train), size=int(g.integers(0, 200)))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives(ds, users, n, got_rng).negatives
            want = reference_rows(train, n_items, users, n, want_rng)
            assert np.array_equal(got, want), f"seed {seed}"
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, f"seed {seed}"

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
    def test_rows_are_tested_again_in_proportion(self, monkeypatch):
        """A row that falls short reads on into the draws of the rows after
        it, which are then tested again. User 4 falls short about half the
        time at n = 16: the block cap keeps the rows tested within a few
        times the rows, and a block whose first row falls short (user 4
        starts the batch) still moves on."""
        tested, absent = [], dataio._absent

        def counting(values, q):
            if q.ndim == 2:  # a block: one row of q per row tested
                tested.append(len(q))
            return absent(values, q)

        monkeypatch.setattr(dataio, "_absent", counting)
        users = np.array([4] + ([0] * 49 + [4]) * 40)
        for seed in range(5):
            tested.clear()
            with deadline(20):
                got = sample_negatives(self.dataset(), users, 16, np.random.default_rng(seed))
            np.testing.assert_array_equal(
                got.negatives, reference_rows(self.TRAIN, self.N_ITEMS, users, 16,
                                              np.random.default_rng(seed)))
            assert sum(tested) < 4 * len(users)

    def test_shapes(self):
        ds = self.dataset()
        assert sample_negatives(ds, 1, 5, np.random.default_rng(0)).negatives.shape == (5,)
        assert sample_negatives(ds, np.int64(1), 5,
                                np.random.default_rng(0)).negatives.shape == (5,)
        assert sample_negatives(ds, np.array([1]), 5,
                                np.random.default_rng(0)).negatives.shape == (1, 5)
        assert sample_negatives(ds, np.array([], dtype=np.int64), 5,
                                np.random.default_rng(0)).negatives.shape == (0, 5)

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_exhausted_user_anywhere_raises(self, at):
        train = dict(self.TRAIN)
        train[5] = list(range(self.N_ITEMS))
        users = np.array([0, 1, 3, 2])
        with pytest.raises(NoNegativesError, match="user 5"):
            sample_negatives(self.dataset(train), np.insert(users, at, 5), 3,
                             np.random.default_rng(0))

    def test_rejects_non_positive_n(self):
        with pytest.raises(BadParam):
            sample_negatives(self.dataset(), np.array([0, 1]), 0, np.random.default_rng(0))

    def test_iter_batches_equals_per_row_stack(self, small_dataset):
        pairs = small_dataset.train_pairs
        assert len(pairs) == 16
        for batch_size, sizes in ((7, [7, 7, 2]), (16, [16]), (100, [16])):
            cfg = TrainConfig(batch_size=batch_size, n_negatives=5, seed=3)
            perm = substream(cfg.seed, "min-shuffle", 2).permutation(len(pairs))
            batches = list(iter_batches(small_dataset, cfg, 2, "min"))
            assert [len(batch.users) for batch in batches] == sizes
            for b, batch in enumerate(batches):
                chunk = pairs[perm[b * batch_size:(b + 1) * batch_size]]
                np.testing.assert_array_equal(batch.users, chunk[:, 0])
                np.testing.assert_array_equal(batch.pos_items, chunk[:, 1])
                rng = substream(cfg.seed, "min-neg", 2, b)
                want = np.stack([reference_sample_negatives(
                    set(small_dataset.positives(int(u)).tolist()), small_dataset.n_items, 5, rng)
                    for u in batch.users])
                np.testing.assert_array_equal(batch.negatives, want)


class TestGammaQuotas:
    def test_endpoint_values(self):
        q = gamma_quotas(100, 100.0, 50)
        assert q[0] == 100 and q[-1] == 1

    def test_flat_at_gamma_one(self):
        assert np.all(gamma_quotas(100, 1.0, 50) == 100)

    def test_mid_group_hand_value(self):
        q = gamma_quotas(100, 4.0, 50)
        assert q[24] == 51  # group 25: round(100 * 4^(-24/49))

    def test_non_increasing_for_gamma_ge_one(self):
        for gamma in (1.0, 1.5, 2.0, 10.0, 200.0):
            q = gamma_quotas(37, gamma, 50)
            assert np.all(np.diff(q) <= 0)

    def test_bad_params(self):
        with pytest.raises(BadParam):
            gamma_quotas(10, 0.0, 50)
        with pytest.raises(BadParam):
            gamma_quotas(10, 2.0, 1)
        with pytest.raises(BadParam):
            gamma_quotas(0, 2.0, 50)
        for gamma in (float("nan"), float("inf")):
            with pytest.raises(BadParam, match="gamma"):
                gamma_quotas(10, gamma, 50)
        with pytest.raises(BadParam, match="n0"):
            gamma_quotas(10**400, 2.0, 50)
        for n0, gamma in ((2**61, 0.5), (10, 1e-300)):
            with pytest.raises(BadParam, match="int64"):
                gamma_quotas(n0, gamma, 50)


class TestGammaSplit:
    def make_pool(self, seed=0, n_users=40, n_items=30):
        rng = np.random.default_rng(seed)
        pairs = set()
        # popularity skew: item weights ~ 1/(i+1)
        weights = 1.0 / (np.arange(n_items) + 1.0)
        weights /= weights.sum()
        while len(pairs) < 500:
            u = int(rng.integers(0, n_users))
            i = int(rng.choice(n_items, p=weights))
            pairs.add((u, i))
        return np.array(sorted(pairs), dtype=np.int64), n_items

    def test_partitions_disjoint_and_complete(self):
        pool, n_items = self.make_pool()
        res = gamma_split(pool, n_items, gamma=10.0, n0=5,
                          rng=np.random.default_rng(1), groups=10)
        parts = [res.train_pairs, res.valid_pairs, res.test_pairs]
        total = sum(len(p) for p in parts)
        assert total == len(pool)
        all_pairs = {tuple(p) for part in parts for p in part}
        assert len(all_pairs) == len(pool)

    def test_drawn_counts_respect_quota(self):
        pool, n_items = self.make_pool()
        res = gamma_split(pool, n_items, gamma=10.0, n0=5,
                          rng=np.random.default_rng(2), groups=10)
        assert np.all(res.drawn <= res.quotas)
        counts = np.zeros(10, dtype=int)
        for _, i in res.test_pairs:
            counts[res.item_group[i]] += 1
        np.testing.assert_array_equal(counts, res.drawn)

    def test_remainder_split_ratio(self):
        pool, n_items = self.make_pool()
        res = gamma_split(pool, n_items, gamma=2.0, n0=3,
                          rng=np.random.default_rng(3), groups=10)
        rest = len(res.train_pairs) + len(res.valid_pairs)
        assert len(res.train_pairs) == int(round(rest * 6.0 / 7.0))

    def test_quotas_taking_the_whole_pool_raise(self):
        pool, n_items = self.make_pool()
        with pytest.raises(EmptySplitError, match=f"drew {len(pool)} of the {len(pool)} pool"):
            gamma_split(pool, n_items, gamma=1.0, n0=len(pool),
                        rng=np.random.default_rng(4), groups=10)

    def test_deterministic(self):
        pool, n_items = self.make_pool()
        r1 = gamma_split(pool, n_items, 5.0, 4, np.random.default_rng(7), groups=10)
        r2 = gamma_split(pool, n_items, 5.0, 4, np.random.default_rng(7), groups=10)
        np.testing.assert_array_equal(r1.test_pairs, r2.test_pairs)
        np.testing.assert_array_equal(r1.train_pairs, r2.train_pairs)


class TestGenerateSynthetic:
    def test_zero_bias_has_flat_exposure_weights(self):
        spec = SyntheticSpec(n_users=150, n_items=80, exposure_bias_strength=0.0,
                             seed=5, train_fraction=0.5)
        result = generate_synthetic(spec)
        np.testing.assert_array_equal(result.exposure_weight, np.ones(80))
        # realized exposure rate over relevant pairs is binomial around 0.5
        n_exposed = len(result.dataset.train_pairs) + len(result.dataset.valid_pairs)
        hidden = len(result.planted_fn) / spec.fn_plant_rate
        total = n_exposed + hidden
        sigma = np.sqrt(total * 0.25)
        assert abs(n_exposed - 0.5 * total) < 4 * sigma

    def test_planted_fn_absent_from_train_present_in_test(self):
        result = generate_synthetic(SyntheticSpec(n_users=100, n_items=60, seed=6))
        train = {tuple(p) for p in result.dataset.train_pairs}
        valid = {tuple(p) for p in result.dataset.valid_pairs}
        test = {tuple(p) for p in result.dataset.test_pairs}
        planted = {tuple(p) for p in result.planted_fn}
        assert planted == test
        assert not (planted & train)
        assert not (planted & valid)

    def test_deterministic_and_byte_identical_files(self, tmp_path):
        spec = SyntheticSpec(n_users=60, n_items=40, seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.dataset.train_pairs, b.dataset.train_pairs)
        np.testing.assert_array_equal(a.planted_fn, b.planted_fn)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        write_dataset(d1, synthetic_files(a))
        write_dataset(d2, synthetic_files(b))
        for name in ("train.tsv", "valid.tsv", "test.tsv", "planted_fn.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_zero_plant_rate_gives_empty_test(self):
        result = generate_synthetic(SyntheticSpec(n_users=60, n_items=40,
                                                  fn_plant_rate=0.0, seed=8))
        assert len(result.planted_fn) == 0
        assert len(result.dataset.test_pairs) == 0

    def test_degenerate_spec_raises(self):
        with pytest.raises(DegenerateSpec):
            generate_synthetic(SyntheticSpec(n_users=30, n_items=20,
                                             train_fraction=1e-9, seed=9))

    @pytest.mark.parametrize("shape", [dict(n_users=1, n_items=1),
                                       dict(n_users=60, n_items=40, relevance_quantile=1e-17)])
    def test_no_relevant_pair_raises(self, shape):
        # one affinity, or a quantile that rounds to the largest: nothing lies above the cutoff
        with pytest.raises(DegenerateSpec, match="no relevant pair at the requested quantile"):
            generate_synthetic(SyntheticSpec(seed=3, **shape))

    def test_cutoff_interpolates_over_two_values(self, monkeypatch):
        # np.quantile over the whole affinity matrix partitions it at four kths,
        # numpy's slow multi-kth path; the generator hands it two values only
        real, sizes = np.quantile, []

        def spy(a, q, *args, **kwargs):
            sizes.append(np.size(a))
            return real(a, q, *args, **kwargs)

        monkeypatch.setattr(np, "quantile", spy)
        generate_synthetic(SyntheticSpec(n_users=300, n_items=150, seed=12))
        assert sizes == [2]

    def test_popularity_sums_to_train_pairs(self):
        result = generate_synthetic(SyntheticSpec(n_users=80, n_items=50, seed=10))
        ds = result.dataset
        assert ds.item_popularity.sum() == len(ds.train_pairs)

    def test_bias_skews_exposure_toward_popular_items(self):
        spec = SyntheticSpec(n_users=300, n_items=100, exposure_bias_strength=2.0,
                             seed=11)
        result = generate_synthetic(spec)
        ds = result.dataset
        w = result.exposure_weight
        top = np.argsort(-w)[:20]
        bottom = np.argsort(-w)[-20:]
        assert ds.item_popularity[top].sum() > 5 * max(ds.item_popularity[bottom].sum(), 1)


def quantile_case(rng):
    """A seeded 1-D float array and a q for _linear_quantile against np.quantile."""
    n = int(rng.choice([1, 2, 3, rng.integers(4, 400), rng.integers(400, 20_000)],
                       p=[0.1, 0.1, 0.1, 0.65, 0.05]))
    kind = rng.integers(5)
    if kind == 0:
        x = rng.normal(size=n)
    elif kind == 1:  # heavy ties, zeros among them
        x = rng.integers(-3, 4, size=n).astype(float)
    elif kind == 2:  # adjacent floats
        x = np.nextafter(1.5, rng.choice([-np.inf, 1.5, np.inf], size=n))
    elif kind == 3:  # magnitudes from 1e-300 to 1e300, either sign
        x = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
    else:  # no positive value: zeros at the top end
        x = -rng.integers(0, 3, size=n).astype(float)
    if rng.random() < 0.5:
        # one sign of zero per array: a tie of -0.0 with +0.0 may come back as either
        x[x == 0] = -0.0
    # 1 - 1e-17 is 1.0, as relevance_quantile=1e-17 makes it: h rounds up to n - 1
    q = rng.random() if rng.random() < 0.7 else float(rng.choice(
        [0.0, 0.5, 1 - 1e-17, np.nextafter(1.0, 0.0), 0.98, 0.02]))
    return x, q


def test_linear_quantile_equals_np_quantile_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(4000):
        x, q = quantile_case(rng)
        want = np.quantile(x, q)
        got = dataio._linear_quantile(x.copy(), q)
        assert type(got) is type(want) and got.tobytes() == want.tobytes(), (x, q, got, want)


class TestSpecValidation:
    def test_bad_fractions(self):
        with pytest.raises(BadParam):
            SyntheticSpec(train_fraction=0.0)
        with pytest.raises(BadParam):
            SyntheticSpec(fn_plant_rate=1.0)
        with pytest.raises(BadParam):
            SyntheticSpec(exposure_bias_strength=-1.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_exposure_bias(self, value):
        with pytest.raises(BadParam, match="exposure_bias_strength"):
            SyntheticSpec(exposure_bias_strength=value)

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 7])
    def test_seed_outside_32_bits(self, seed):
        with pytest.raises(BadParam, match="seed"):
            SyntheticSpec(seed=seed)


@pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 7, 7.0])
def test_substream_rejects_a_seed_outside_32_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        substream(seed, "tag")


def test_substream_takes_every_32_bit_seed():
    for seed in (0, 2**32 - 1, np.int64(7)):
        substream(seed, "tag").random()
