import hashlib
import json
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from incrlin import datamodel, io
from incrlin.datamodel import EmbeddingTable, WeightMatrix
from incrlin.errors import FormatError, ValidationError
from incrlin.synth import SynthSpec, generate

from conftest import pools_store


def _store(seed=0):
    return generate(SynthSpec(n_classes=4, dimension=5, rng_seed=seed,
                              support_per_class=3, query_per_class=2)).store


def test_feature_csv_round_trip_exact(tmp_path):
    store = _store()
    path = tmp_path / "features.csv"
    io.save_feature_store_csv(store, path)
    back = io.load_feature_store_csv(path)
    assert back.classes == store.classes
    for c in store.classes:
        np.testing.assert_array_equal(back.support(c), store.support(c))
        np.testing.assert_array_equal(back.query(c), store.query(c))


def test_feature_binary_round_trip_f32(tmp_path):
    store = _store(1)
    path = tmp_path / "features.fscf"
    io.save_feature_store_binary(store, path)
    back = io.load_feature_store_binary(path)
    assert back.classes == store.classes
    for c in store.classes:
        np.testing.assert_array_equal(back.support(c),
                                      store.support(c).astype("<f4").astype(np.float64))
        np.testing.assert_array_equal(back.query(c),
                                      store.query(c).astype("<f4").astype(np.float64))


def test_feature_loader_dispatches_on_magic(tmp_path):
    store = _store(2)
    csv_path = tmp_path / "a.data"
    bin_path = tmp_path / "b.data"
    io.save_feature_store_csv(store, csv_path)
    io.save_feature_store_binary(store, bin_path)
    assert io.load_feature_store(csv_path).classes == store.classes
    assert io.load_feature_store(bin_path).classes == store.classes


def test_feature_binary_bad_files(tmp_path):
    good = tmp_path / "good.fscf"
    io.save_feature_store_binary(_store(), good)
    blob = good.read_bytes()

    bad_magic = tmp_path / "bad_magic"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        io.load_feature_store_binary(bad_magic)

    bad_version = tmp_path / "bad_version"
    bad_version.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError):
        io.load_feature_store_binary(bad_version)

    truncated = tmp_path / "truncated"
    truncated.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        io.load_feature_store_binary(truncated)

    # record 2 starts at byte 16 + 2 * (5 + 4 * 5); its tag is 4 bytes in
    bad_tag = tmp_path / "bad_tag"
    bad_tag.write_bytes(blob[:70] + b"\x07" + blob[71:])
    with pytest.raises(FormatError, match="record 2 at byte offset 66"):
        io.load_feature_store_binary(bad_tag)

    zero_dim = tmp_path / "zero_dim"
    zero_dim.write_bytes(io.FEATURE_MAGIC + struct.pack("<III", 1, 2, 0) + bytes(10))
    with pytest.raises(FormatError):
        io.load_feature_store_binary(zero_dim)


@pytest.mark.parametrize("name, content, named", [
    ("empty.fscf", io.FEATURE_MAGIC + struct.pack("<III", 1, 0, 3), "no records"),
    ("empty.csv", b"class_id,split,f0,f1,f2\r\n", "no data rows"),
])
def test_feature_store_file_without_rows_names_itself(tmp_path, name, content, named):
    # a well-formed header and not one row: a fault of the file, named by it
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {named}$"):
        io.load_feature_store(path)


def test_feature_binary_rejects_class_ids_beyond_u32(tmp_path):
    store = pools_store(2, {}, {2**32: np.ones((1, 2))})
    with pytest.raises(ValidationError, match=str(2**32)):
        io.save_feature_store_binary(store, tmp_path / "big.fscf")
    io.save_feature_store_csv(store, tmp_path / "big.csv")
    assert io.load_feature_store_csv(tmp_path / "big.csv").classes == (2**32,)


def test_feature_csv_keeps_class_ids_up_to_int64(tmp_path):
    # ids past 2**62 group apart, split by split, and survive the CSV round trip
    big = [2**62, 2**63 - 1, 2**62 + 1]
    labels = [(big[0], True), (big[1], False), (big[1], True), (big[2], True), (big[0], False)]
    _write_csv(tmp_path / "in.csv", 2, labels, np.arange(10.0).reshape(5, 2))
    store = io.load_feature_store_csv(tmp_path / "in.csv")
    assert store.classes == tuple(sorted(big))
    np.testing.assert_array_equal(store.support(big[0]), [[8.0, 9.0]])
    np.testing.assert_array_equal(store.query(big[1]), [[4.0, 5.0]])
    io.save_feature_store_csv(store, tmp_path / "out.csv")
    assert io.load_feature_store_csv(tmp_path / "out.csv").classes == store.classes


@pytest.mark.parametrize("cid", [2**63, 99999999999999999999, -2**63 - 1])
def test_feature_csv_class_id_beyond_int64_names_its_line(tmp_path, cid):
    p = tmp_path / "wide.csv"
    p.write_text(f"class_id,split,f0\n0,query,1.0\n{cid},query,2.0\n")
    with pytest.raises(FormatError, match=rf"wide.csv:3: class id {cid} does not fit 64 bits"):
        io.load_feature_store_csv(p)


def test_feature_store_bytes_pinned(tmp_path):
    # digests of both formats as written before the writers were vectorised
    grid = np.arange(1.0, 25.0).reshape(8, 3) / 7.0
    store = pools_store(3, {0: grid[:2], 5: -grid[2:5]},
                        {0: grid[5:6], 2: grid[6:8], 5: 1e-3 * grid[:1]})
    io.save_feature_store_csv(store, tmp_path / "f.csv")
    io.save_feature_store_binary(store, tmp_path / "f.fscf")
    assert hashlib.sha256((tmp_path / "f.csv").read_bytes()).hexdigest() == \
        "8788a89e67632a99c5447e624ad700393149591bd770bccb7d9b9527c20d8fec"
    assert hashlib.sha256((tmp_path / "f.fscf").read_bytes()).hexdigest() == \
        "db955deb2ad6a7eef5486c2843a63ed27a0d8d4cf7b729e175add44ca4ca9b51"


def _write_csv(path, dim, labels, feats):
    lines = [",".join(["class_id", "split"] + [f"f{i}" for i in range(dim)])]
    lines += [f"{c},{'query' if q else 'support'}," + ",".join(repr(float(v)) for v in row)
              for (c, q), row in zip(labels, feats)]
    path.write_text("\n".join(lines) + "\n")


def _write_fscf(path, dim, labels, feats):
    blob = io.FEATURE_MAGIC + struct.pack("<III", 1, len(labels), dim)
    for (c, q), row in zip(labels, feats):
        blob += struct.pack("<IB", c, q) + np.asarray(row, dtype="<f4").tobytes()
    path.write_bytes(blob)


@st.composite
def _row_tables(draw):
    """A dimension, (class, is_query) labels in file order with classes and
    splits interleaved, and float32-exact features."""
    dim = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True))
    labels = []
    for c in ids:
        labels += [(c, False)] * draw(st.integers(0, 3)) + [(c, True)] * draw(st.integers(1, 3))
    labels = draw(st.permutations(labels))
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    feats = draw(arrays(np.float32, (len(labels), dim), elements=finite)).astype(np.float64)
    return dim, labels, feats


@settings(max_examples=60, deadline=None)
@given(_row_tables())
def test_feature_store_round_trip_keeps_file_order(table):
    dim, labels, feats = table
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for write, save in ((_write_csv, io.save_feature_store_csv),
                            (_write_fscf, io.save_feature_store_binary)):
            write(tmp / "in", dim, labels, feats)
            store = io.load_feature_store(tmp / "in")
            assert store.classes == tuple(sorted({c for c, _ in labels}))
            for c in store.classes:
                for q, got in ((False, store.support(c)), (True, store.query(c))):
                    want = feats[[i for i, lab in enumerate(labels) if lab == (c, q)]]
                    np.testing.assert_array_equal(got, want)
            save(store, tmp / "a")
            save(io.load_feature_store(tmp / "a"), tmp / "b")
            assert (tmp / "a").read_bytes() == (tmp / "b").read_bytes()


def test_feature_csv_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("class_id,foo,f0\n0,support,1.0\n")
    with pytest.raises(FormatError):
        io.load_feature_store_csv(p)
    p.write_text("class_id,split,f0\n0,support\n")
    with pytest.raises(FormatError):
        io.load_feature_store_csv(p)
    p.write_text("class_id,split,f0\n0,train,1.0\n")
    with pytest.raises(FormatError):
        io.load_feature_store_csv(p)
    p.write_text("class_id,split,f0\n0,support,abc\n")
    with pytest.raises(FormatError):
        io.load_feature_store_csv(p)
    p.write_text("class_id,split,f0\n")
    with pytest.raises(FormatError):
        io.load_feature_store_csv(p)


def test_embeddings_round_trip(tmp_path):
    table = EmbeddingTable({3: np.array([0.5, -1.25]), 1: np.array([2.0, 4.0])})
    path = tmp_path / "emb.csv"
    io.save_embeddings_csv(table, path)
    back = io.load_embeddings_csv(path)
    assert back.classes == (1, 3)
    np.testing.assert_array_equal(back.vector(3), table.vector(3))


def test_weights_round_trip(tmp_path):
    w = WeightMatrix([2, 0], np.array([[1.5, -2.0], [0.25, 3.0]]))
    path = tmp_path / "weights.csv"
    io.save_weights_csv(w, path)
    back = io.load_weights_csv(path)
    np.testing.assert_array_equal(back.row(2), w.row(2))
    np.testing.assert_array_equal(back.row(0), w.row(0))


def test_vector_csv_rejects_a_repeated_class(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("class_id,w0,w1\n3,1.0,2.0\n5,0.0,1.0\n3,4.0,4.0\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:4: class 3")):
        io.load_weights_csv(p)
    p.write_text("class_id,e0,e1\n7,1.0,2.0\n7,1.0,2.0\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: class 7")):
        io.load_embeddings_csv(p)


@pytest.mark.parametrize("load, prefix", [(io.load_weights_csv, "w"),
                                           (io.load_embeddings_csv, "e"),
                                           (io.load_feature_store_csv, "f")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_vector_csv_non_finite_value_names_its_line(tmp_path, load, prefix, value):
    p = tmp_path / "v.csv"
    # a feature CSV has a second label column, the split
    labels, split = ("class_id,split", ",query") if prefix == "f" else ("class_id", "")
    p.write_text(f"{labels},{prefix}0,{prefix}1\n3{split},1.0,2.0\n5{split},0.5,{value}\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: class 5 has a non-finite value")):
        load(p)


@pytest.mark.parametrize("load, prefix", [(io.load_weights_csv, "w"),
                                           (io.load_embeddings_csv, "e")])
@pytest.mark.parametrize("cid", [2**64, 2**63, -2**63 - 1])
def test_vector_csv_class_id_beyond_int64_names_its_line(tmp_path, load, prefix, cid):
    p = tmp_path / "v.csv"
    p.write_text(f"class_id,{prefix}0\n0,1.0\n{cid},2.0\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:3: class id {cid} does not fit 64 bits")):
        load(p)


def test_vector_csv_keeps_class_ids_up_to_int64(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text(f"class_id,w0\n{2**63 - 1},1.0\n{-2**63},2.0\n")
    assert io.load_weights_csv(p).class_ids == (-2**63, 2**63 - 1)


def test_manifest_round_trip_and_registry(tmp_path):
    path = tmp_path / "manifest.json"
    labels = {0: "cat", 1: "dog", 2: "newt"}
    sessions = {0: 0, 1: 0, 2: 1}
    io.save_manifest(path, labels, sessions)
    labels2, sessions2 = io.load_manifest(path)
    assert labels2 == labels and sessions2 == sessions
    registry = io.registry_from_manifest(sessions2)
    assert registry.base_classes == (0, 1)
    assert registry.classes_in(1) == (2,)


def test_manifest_bad_files(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("not json")
    with pytest.raises(FormatError):
        io.load_manifest(p)
    p.write_text(json.dumps({"0": {"label": "x"}}))  # missing session
    with pytest.raises(FormatError):
        io.load_manifest(p)
    p.write_text(json.dumps({}))
    with pytest.raises(FormatError):
        io.load_manifest(p)
    p.write_text(json.dumps({"1": {"label": "a", "session": 0},
                             "01": {"label": "b", "session": 1}}))  # one class, two keys
    with pytest.raises(FormatError, match="'01'"):
        io.load_manifest(p)
    for session in (1.9, True, "1", -1):  # a session is a non-negative JSON integer
        p.write_text(json.dumps({"0": {"label": "a", "session": 0},
                                 "7": {"label": "b", "session": session}}))
        with pytest.raises(FormatError, match="m.json: key '7'"):
            io.load_manifest(p)
    with pytest.raises(FormatError):
        io.registry_from_manifest({0: 1})  # no session-0 classes


def test_csv_floats_survive_full_precision(tmp_path):
    # repr round-trips doubles exactly
    vals = np.array([[np.pi, np.e, 1e-300, -1.2345678901234567e10, 0.1]])
    store = pools_store(5, {0: vals}, {0: vals})
    path = tmp_path / "f.csv"
    io.save_feature_store_csv(store, path)
    back = io.load_feature_store_csv(path)
    np.testing.assert_array_equal(back.query(0), vals)


# --- streamed FSCF load -----------------------------------------------------

def _record_bytes(dim):
    return 5 + 4 * dim


def _small_blocks(monkeypatch, dim, records):
    """Make the loader and the writer move ``records`` records per block."""
    monkeypatch.setattr(datamodel, "BLOCK_BYTES", records * _record_bytes(dim))


def _interleaved(n_classes=3, per_split=3, dim=4):
    """Labels that cycle through classes and splits, and float32-exact rows."""
    labels = [(c, q) for _ in range(per_split) for q in (True, False) for c in range(n_classes)]
    feats = np.arange(len(labels) * dim, dtype=np.float64).reshape(len(labels), dim) / 8.0
    return labels, feats


def _expect_groups(store, labels, feats):
    for c in store.classes:
        for q, got in ((False, store.support(c)), (True, store.query(c))):
            np.testing.assert_array_equal(got, feats[[i for i, lab in enumerate(labels)
                                                      if lab == (c, q)]])


# 18 records: fewer than one block, not a multiple of it, one record per block
@pytest.mark.parametrize("per_block", [64, 4, 5, 1])
def test_fscf_load_any_block_split(tmp_path, monkeypatch, per_block):
    labels, feats = _interleaved()
    _write_fscf(tmp_path / "in.fscf", 4, labels, feats)
    _small_blocks(monkeypatch, 4, per_block)
    store = io.load_feature_store_binary(tmp_path / "in.fscf")
    assert store.classes == (0, 1, 2)
    _expect_groups(store, labels, feats)
    io.save_feature_store_binary(store, tmp_path / "out.fscf")
    monkeypatch.undo()
    io.save_feature_store_binary(store, tmp_path / "whole.fscf")
    assert (tmp_path / "out.fscf").read_bytes() == (tmp_path / "whole.fscf").read_bytes()


def test_fscf_bad_tag_in_second_block_names_record_and_offset(tmp_path, monkeypatch):
    labels, feats = _interleaved()
    path = tmp_path / "tag.fscf"
    _write_fscf(path, 4, labels, feats)
    blob = bytearray(path.read_bytes())
    blob[16 + 6 * _record_bytes(4) + 4] = 2  # record 6's split tag
    path.write_bytes(bytes(blob))
    _small_blocks(monkeypatch, 4, 4)  # record 6 is in the second block
    with pytest.raises(FormatError, match=rf"tag.fscf: record 6 at byte offset "
                                          rf"{16 + 6 * _record_bytes(4)}: unknown split tag 2"):
        io.load_feature_store_binary(path)


def test_fscf_non_finite_in_later_block_names_its_class(tmp_path, monkeypatch):
    labels, feats = _interleaved()
    feats[13, 2] = np.inf  # record 13: class 1, query; sorted row 11, past the first blocks
    _write_fscf(tmp_path / "inf.fscf", 4, labels, feats)
    _small_blocks(monkeypatch, 4, 4)
    with pytest.raises(ValidationError, match="class 1: non-finite feature entries"):
        io.load_feature_store_binary(tmp_path / "inf.fscf")


def test_fscf_record_count_must_match_file_size_before_allocating(tmp_path):
    path = tmp_path / "count.fscf"
    path.write_bytes(io.FEATURE_MAGIC + struct.pack("<III", 1, 2**32 - 1, 640) + bytes(2565))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"count.fscf: expected \d+ bytes, got 2581"):
            io.load_feature_store_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 2**32 - 1 records would be terabytes


def test_fscf_short_read_names_the_file(tmp_path, monkeypatch):
    labels, feats = _interleaved()
    path = tmp_path / "short.fscf"
    _write_fscf(path, 4, labels, feats)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-7])  # shrinks after the size check passes
    monkeypatch.setattr(io.os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
    with pytest.raises(FormatError, match="short.fscf: short read"):
        io.load_feature_store_binary(path)


def test_fscf_load_peaks_at_the_store_plus_two_blocks(tmp_path):
    store = generate(SynthSpec(n_classes=80, dimension=640, rng_seed=3)).store
    path = tmp_path / "big.fscf"
    io.save_feature_store_binary(store, path)
    n = store.to_rows()[0].size
    tracemalloc.start()
    try:
        back = io.load_feature_store_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.classes == store.classes
    # the float64 matrix, the reused record block and one cast block, and
    # a few per-row label and order arrays
    assert peak <= n * 640 * 8 + 2 * datamodel.BLOCK_BYTES + 64 * n
