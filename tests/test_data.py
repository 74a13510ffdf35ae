"""Synthetic blob generator and CSV ingestion."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuronprune import Dataset, load_csv, make_blobs
from neuronprune.data import _numbered_lines

from conftest import mutate


class TestDatasetType:
    def test_splits_must_cover_every_sample(self):
        x = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError):
            Dataset(x, y, np.array([0, 1]), np.array([2]), np.array([2]))

    def test_splits_must_be_disjoint(self):
        x = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError):
            Dataset(x, y, np.array([0, 1, 2]), np.array([2]), np.array([3]))

    def test_non_finite_features_rejected(self):
        x = np.zeros((3, 2))
        x[1, 0] = np.inf
        y = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError):
            Dataset(x, y, np.array([0]), np.array([1]), np.array([2]))

    def test_split_accessor(self):
        x = np.arange(12.0).reshape(6, 2)
        y = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        ds = Dataset(x, y, np.array([0, 1, 2]), np.array([3]), np.array([4, 5]))
        xs, ys = ds.split("val")
        np.testing.assert_array_equal(xs, x[3:4])
        np.testing.assert_array_equal(ys, [1])
        with pytest.raises(ValueError):
            ds.split("holdout")


def test_loading_data_leaves_numpy_ma_unimported(tmp_path):
    # np.unique's first call imports numpy.ma, which costs tens of milliseconds
    # on a fresh interpreter; the split check needs no such import.
    path = tmp_path / "blobs.csv"
    path.write_text("".join(f"{k % 7}.5,{k % 3}.25,{k % 2}\n" for k in range(40)))
    code = (
        "import sys\n"
        "from neuronprune import load_csv, make_blobs\n"
        "make_blobs(n_samples=200, seed=1)\n"
        f"load_csv({str(path)!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


class TestMakeBlobs:
    def test_default_shape_and_classes(self):
        ds = make_blobs()
        assert ds.features.shape == (4300, 57)
        assert ds.n_classes == 2
        assert len(ds.train_idx) + len(ds.val_idx) + len(ds.test_idx) == 4300

    def test_same_seed_is_bitwise_identical(self):
        a = make_blobs(seed=9)
        b = make_blobs(seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_different_seed_differs(self):
        assert not np.array_equal(make_blobs(seed=0).features, make_blobs(seed=1).features)

    def test_class_centers_sit_at_requested_separation(self):
        ds = make_blobs(n_samples=3000, n_features=10, n_classes=3, separation=6.0,
                        label_noise=0.0, seed=2)
        centers = [ds.features[ds.labels == c].mean(axis=0) for c in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(centers[i] - centers[j])
                assert d == pytest.approx(6.0, abs=0.15)

    def test_label_noise_rate(self):
        clean = make_blobs(n_samples=4000, label_noise=0.0, seed=3)
        noisy = make_blobs(n_samples=4000, label_noise=0.1, seed=3)
        flipped = np.mean(clean.labels != noisy.labels)
        assert flipped == pytest.approx(0.1, abs=0.02)

    def test_labels_are_every_class(self):
        ds = make_blobs(n_samples=400, n_classes=5, seed=4)
        assert set(np.unique(ds.labels)) == set(range(5))

    def test_split_is_sixty_twenty_twenty(self):
        for n, want in ((1000, (600, 200, 200)), (4300, (2580, 860, 860))):
            ds = make_blobs(n_samples=n, seed=5)
            assert (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx)) == want

    def test_too_few_samples_for_the_split_rejected(self):
        # Four samples leave no validation row under the 20% share.
        with pytest.raises(ValueError, match="dataset too small for the requested split"):
            make_blobs(n_samples=4)


class TestLoadCsv:
    def write_csv(self, path, n=60, d=3, header=False, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(2.0, 3.0, size=(n, d))
        y = rng.integers(0, 2, size=n)
        with open(path, "w") as fh:
            if header:
                fh.write(",".join(f"f{k}" for k in range(d)) + ",label\n")
            for row, lab in zip(x, y):
                fh.write(",".join(f"{v:.10g}" for v in row) + f",{lab}\n")
        return x, y

    def test_round_trip_values_and_labels(self, tmp_path):
        p = tmp_path / "data.csv"
        x, y = self.write_csv(p)
        ds = load_csv(p, standardize=False)
        np.testing.assert_allclose(ds.features, np.loadtxt(p, delimiter=",")[:, :3])
        np.testing.assert_array_equal(ds.labels, y)

    def test_header_flag_skips_one_line(self, tmp_path):
        p = tmp_path / "data.csv"
        self.write_csv(p, header=True)
        with pytest.raises(ValueError):
            load_csv(p)
        ds = load_csv(p, has_header=True)
        assert ds.features.shape == (60, 3)

    def test_standardization_uses_train_statistics_only(self, tmp_path):
        p = tmp_path / "data.csv"
        self.write_csv(p, n=100)
        ds = load_csv(p, seed=5)
        raw = load_csv(p, seed=5, standardize=False)
        mu = raw.features[raw.train_idx].mean(axis=0)
        sd = raw.features[raw.train_idx].std(axis=0)
        np.testing.assert_allclose(ds.features, (raw.features - mu) / sd, rtol=1e-12)
        train_part = ds.features[ds.train_idx]
        np.testing.assert_allclose(train_part.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train_part.std(axis=0), 1.0, rtol=1e-12)

    def test_split_is_sixty_twenty_twenty(self, tmp_path):
        p = tmp_path / "data.csv"
        self.write_csv(p, n=60)
        ds = load_csv(p)
        assert (len(ds.train_idx), len(ds.val_idx), len(ds.test_idx)) == (36, 12, 12)

    def test_non_integer_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0,0.5\n2.0,1.0,1\n")
        with pytest.raises(ValueError):
            load_csv(p)

    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("cell, problem", [
        ("abc", "column 2 is not a number: 'abc'"),
        ("1_0", "column 2 is not a number: '1_0'"),
        ("inf", "features must be finite (no missing values)"),
        ("-inf", "features must be finite (no missing values)"),
        ("nan", "features must be finite (no missing values)"),
    ])
    def test_unparsable_cell_names_its_line(
        self, tmp_path, has_header, standardize, cell, problem
    ):
        p = tmp_path / "bad.csv"
        header = "f0,f1,label\n" if has_header else ""
        p.write_text(header + "# note\n\n1.0,2.0,0\n3.0," + cell + ",1\n" + "2.0,1.0,1\n" * 9)
        line = 5 if has_header else 4
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:{line}: {problem}')}$"):
            load_csv(p, has_header=has_header, standardize=standardize)

    @pytest.mark.parametrize("has_header", [False, True])
    def test_ragged_row_names_its_line(self, tmp_path, has_header):
        p = tmp_path / "ragged.csv"
        header = "f0,f1,label\n" if has_header else ""
        p.write_text(header + "1.0,2.0,0\n\n3.0,1.0,1\n4.0,1\n")
        line = 5 if has_header else 4
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: expected 3 columns, found 2$"):
            load_csv(p, has_header=has_header)

    @pytest.mark.parametrize("row, problem", [
        ("3.0,4.0,1\v1.0,2.0,0", "expected 3 columns, found 5"),
        ("3.0,4\v.0,1", "column 2 is not a number: '4\\x0b.0'"),
        ("3.0,4.0,1,\u00855,6", "expected 3 columns, found 5"),
    ], ids=["vertical-tab-between", "vertical-tab-inside", "next-line"])
    def test_rows_end_only_where_loadtxt_ends_them(self, tmp_path, row, problem):
        # np.loadtxt ends lines at \n, \r\n and \r only; str.splitlines also
        # splits at \v, \f, NEL and more, which would misplace the row.
        p = tmp_path / "bad.csv"
        rows = ["1.0,2.0,0", "3.0,4.0,1"] * 5
        rows[5] = row
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:6: {problem}')}$"):
            load_csv(p)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_rows_end_at_carriage_returns(self, tmp_path, ending):
        p = tmp_path / "bad.csv"
        p.write_bytes(ending.join(["1.0,2.0,0", "3.0,1.0,1", "4.0,1", ""]).encode())
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: expected 3 columns, found 2$"):
            load_csv(p)

    @pytest.mark.parametrize("text, has_header", [
        ("", False), ("f0,f1,label\n", True), ("# note\n\n", False),
    ], ids=["empty", "header-only", "comments-only"])
    def test_file_without_rows_is_refused_without_a_warning(self, tmp_path, text, has_header):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: no data rows$"):
                load_csv(p, has_header=has_header)

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("label", ["0.5", "-1", "1e300"])
    def test_bad_label_names_its_line(self, tmp_path, has_header, label):
        p = tmp_path / "lab.csv"
        header = "f0,f1,label\n" if has_header else ""
        p.write_text(header + "1.0,2.0,0\n# note\n3.0,1.0,1\n4.0,1.0, " + label + "\n5.0,1.0,1\n")
        line = 5 if has_header else 4
        want = f"^{re.escape(str(p))}:{line}: label must be a nonnegative integer, found '{label}'$"
        with pytest.raises(ValueError, match=want):
            load_csv(p, has_header=has_header)

    @pytest.mark.parametrize("rows, problem", [
        (["1.0,2.0,0", "2.0,1.0,1"], "dataset too small for the requested split"),
        (["1.5e308,1.0,0", "1.5e308,2.0,1"] * 5, "overflow encountered"),
        (["0", "1"] * 5, "need rows of finite features and a nonnegative integer label"),
    ])
    def test_file_level_problems_name_the_path(self, tmp_path, rows, problem):
        p = tmp_path / "short.csv"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {problem}"):
            load_csv(p)

    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["truncate", "flip", "drop", "duplicate"]),
        st.integers(0, 10**6),
        st.integers(1, 255),
    )
    @settings(max_examples=400)
    def test_damaged_file_loads_or_names_its_path(
        self, tmp_path_factory, seed, header, kind, at, flip
    ):
        path = tmp_path_factory.mktemp("fuzz") / "damaged.csv"
        self.write_csv(path, n=10, d=2, header=header, seed=seed % 1000)
        path.write_bytes(mutate(path.read_bytes(), kind, at, flip))
        try:
            load_csv(path, has_header=header)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")

    def test_split_seed_controls_partition(self, tmp_path):
        p = tmp_path / "data.csv"
        self.write_csv(p)
        a = load_csv(p, seed=1)
        b = load_csv(p, seed=1)
        c = load_csv(p, seed=2)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        assert not np.array_equal(a.train_idx, c.train_idx)


def whole_text_lines(path, encoding):
    """The whole-text reader ``_numbered_lines`` replaced, kept as its reference.

    Returns ``(line_number, line)`` pairs from ``splitlines`` on the whole
    decoded text or, when a byte does not decode, the message that names
    it: the text is decoded again with undecodable bytes as lone
    surrogates, and the first line holding one is the bad byte's line.
    """
    try:
        with open(path, encoding=encoding) as fh:
            return list(enumerate(fh.read().splitlines(), start=1))
    except UnicodeDecodeError:
        pass
    with open(path, encoding=encoding, errors="surrogateescape") as fh:
        lines = fh.read().splitlines()
    for line_number, line in enumerate(lines, start=1):
        found = re.search("[\udc80-\udcff]", line)
        if found:
            byte = ord(found.group()) - 0xDC00
            return f"{path}:{line_number}: byte 0x{byte:02x} is not {encoding} text"
    return f"{path}: not {encoding} text"


# Every line separator str.splitlines knows, as ASCII bytes and as UTF-8
# (NEL, U+2028, U+2029), plus text, a two-byte character, and bytes or
# sequences that one or both encodings cannot decode: stray continuation
# bytes, cut sequences and an encoded surrogate.
PIECES = [
    b"7", b"a b", b"\n", b"\r", b"\r\n", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e",
    "\x85".encode(), "\u2028".encode(), "\u2029".encode(), "\xe9".encode(),
    b"\x80", b"\x85", b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xb2\x80",
]


class TestNumberedLines:
    @given(
        st.lists(st.sampled_from(PIECES), max_size=24).map(b"".join),
        st.sampled_from(["ascii", "utf-8"]),
    )
    @settings(max_examples=1000)
    def test_matches_the_whole_text_reader(self, tmp_path_factory, blob, encoding):
        path = tmp_path_factory.mktemp("lines") / "blob.txt"
        path.write_bytes(blob)
        try:
            got = list(_numbered_lines(path, encoding))
        except ValueError as exc:
            got = str(exc)
        assert got == whole_text_lines(path, encoding)

    def test_names_the_line_of_the_bad_byte(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok\r\n\x0bstill ok\n\xc3\xa9\n")  # \v ends line 2
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: byte 0xc3 is not ascii text$"):
            list(_numbered_lines(path, "ascii"))
