import hashlib
import io as stdio
import json
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import incrlin.pool as pool_mod
from incrlin import datamodel, io
from incrlin.datamodel import EmbeddingTable, FeatureStore, WeightMatrix
from incrlin.errors import FormatError, ValidationError
from incrlin.protocol import sample_episode
from incrlin.synth import SynthSpec, generate

from conftest import fill_the_disk, pools_store


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


def _save_manifest(store, path):
    io.save_manifest(path, {}, {c: 0 for c in store.classes})


@pytest.mark.parametrize("save", [io.save_feature_store_csv, io.save_feature_store_binary,
                                  _save_manifest])
def test_a_save_that_fails_partway_keeps_the_file_it_would_replace(tmp_path, monkeypatch,
                                                                   save):
    path = tmp_path / "store"
    save(_store(), path)
    before = path.read_bytes()
    fill_the_disk(monkeypatch)
    with pytest.raises(OSError, match="No space left on device"):
        save(_store(1), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["store"]


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
    ("short.fscf", io.FEATURE_MAGIC + bytes(11), "truncated header"),
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


def test_weight_table_without_rows_writes_its_header(tmp_path):
    path = tmp_path / "weights.csv"
    io.save_weights_csv(WeightMatrix([], np.zeros((0, 3))), path)
    assert path.read_bytes() == b"class_id,w0,w1,w2\r\n"


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
    # the float32 matrix, the reused record block and one block the scatter
    # copies, and a few per-row label and order arrays
    assert back.to_rows()[2].dtype == np.float32
    assert peak <= n * 640 * 4 + 2 * datamodel.BLOCK_BYTES + 64 * n


def test_a_store_keeps_the_dtype_its_rows_were_read_in(tmp_path):
    # float32 from FSCF, float64 from CSV, synth and from_rows; every Batch
    # any of them hands out is float64, with the rows' values
    store = _store()
    io.save_feature_store_binary(store, tmp_path / "s.fscf")
    io.save_feature_store_csv(store, tmp_path / "s.csv")
    ids, flags, matrix = store.to_rows()
    stores = {"fscf": io.load_feature_store(tmp_path / "s.fscf"),
              "csv": io.load_feature_store(tmp_path / "s.csv"), "synth": store,
              "from_rows": FeatureStore.from_rows(5, ids, flags, matrix.astype(np.float32))}
    for name, s in stores.items():
        want = np.float32 if name == "fscf" else np.float64
        assert s.to_rows()[2].dtype == s.restrict([0, 1]).to_rows()[2].dtype == want, name
        episode = sample_episode(s.restrict([0, 1]), s.restrict([2, 3]), n_way=2, k_shot=2,
                                 n_query=6, rng=np.random.default_rng(0))
        for batch in (s.support_examples(s.classes), s.support_examples([3, 1], k=2),
                      s.query_batch(s.classes), episode.support, episode.query):
            assert batch.features.dtype == np.float64, name
    rows = stores["fscf"].support_examples(store.classes).features
    np.testing.assert_array_equal(rows, store.support_examples(store.classes).features
                                  .astype(np.float32))


# --- the CSV codec ----------------------------------------------------------

def _block_store():
    return generate(SynthSpec(n_classes=6, dimension=5, rng_seed=4,
                              support_per_class=10, query_per_class=5)).store


def _recording(monkeypatch, tmp_path, name):
    """Wrap ``io.<name>`` to note the pid of every call in a file, which the
    calls in a forked worker write to as well."""
    job, log = getattr(io, name), tmp_path / f"{name}.pids"

    def recorded(*args):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return job(*args)

    monkeypatch.setattr(io, name, recorded)
    return lambda: log.read_text().split() if log.exists() else []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_feature_csv_in_blocks_gives_the_same_bytes_and_rows(tmp_path, monkeypatch, workers):
    # ~9 kB of rows written in blocks of ~256 B: the bytes of one block written
    # in this process whatever the number of workers; and the rows read back,
    # which numpy reads in blocks of 12
    store = _block_store()
    io.save_feature_store_csv(store, tmp_path / "whole.csv")
    monkeypatch.setattr(io, "BLOCK_BYTES", 1024)
    monkeypatch.setattr(pool_mod, "cpus", lambda: workers)
    formatted = _recording(monkeypatch, tmp_path, "_format_block")
    path = tmp_path / "blocks.csv"
    io.save_feature_store_csv(store, path)
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    back = io.load_feature_store_csv(path)
    for got, want in zip(back.to_rows(), store.to_rows()):
        np.testing.assert_array_equal(got, want)
    pids = set(formatted())
    assert len(formatted()) > 5
    assert (pids == {str(os.getpid())}) == (workers == 1) and len(pids) <= workers


def _read(load, path):
    """What ``load`` reads from ``path``, as bytes, or its fault's text."""
    try:
        table = load(path)
    except FormatError as err:
        return str(err)
    if isinstance(table, FeatureStore):
        return [a.tobytes() for a in table.to_rows()]
    return table.class_ids, table.matrix.tobytes()


_F = "class_id,split,f0,f1\r\n"  # a feature CSV
_W = "class_id,w0,w1\r\n"  # a weight CSV


@pytest.mark.parametrize("text, fast", [
    # numpy's parser reads these as int() and float() do
    (_F + " 1 ,query, 2.5 ,\t3\t\r\n", True),
    (_F + "+1,query,+3,1E5\r\n+1,support,-0.0,5e-324\r\n", True),
    (_W + f"{2**63 - 1},1,2\r\n{-2**63},1,2\r\n", True),
    (_F + "0,query,1,2\r1,query,3,4\r", True),
    (_F + "0,query,1,2\n1,query,3,4\r\n2,query,5,6\r0,support,7,8\r\n", True),
    (_F + "0,query,1,2\r\n\r\n0,support,3,4\r\n", True),
    (_W + "7,1.0,2.0\r\n3,0.5,0.25\r\n", True),
    # numpy rejects these, and the streamed reader reads them
    (_F + "1_000,query,1_000,2\r\n", False),
    (_F + "\u0661,query,\u0661,2\r\n", False),
    (_F + '1,"query","2.5",3\r\n', False),
    (_W + '9,"3\n",1\r\n', False),
    # faults, which only the streamed reader names
    (_F + "0,query,1,2\r\n1,query,2.5\x1d,3\r\n", False),
    (_F + "\x1c1,query,2.5,3\r\n", False),
    (_F + "1,query," + "0" * 200_000 + ",3\r\n", False),
    (_F + "1,query,1,2\r\n  \r\n", False),
    (_F + "1,query,1,2\r\n#1,query,1,2\r\n", False),
    (_F + "1,supportive,1,2\r\n", False),
    (_F + "1, support,1,2\r\n", False),
    (_F + "1.0,query,1,2\r\n", False),
    (_F + f"{2**63},query,1,2\r\n", False),
    (_F + "1,query,nan,2\r\n", False),
    (_F + "1,query,x,2\r\n2,query,y,2\r\n", False),
    (_F + "1,query,1,2\r\n2,query,\udcff,2\r\n", False),
    (_F, False),
    (_F + "\r\n\r\n", False),
    (_W + "7,1.0,2.0\r\n3,0.5,0.25\r\n7,1.0,2.0\r\n", False),
], ids=["padded", "signs-exponent-zero-subnormal", "int64-bounds", "lone-cr",
        "mixed-line-ends", "blank-line", "weights",
        "underscores", "arabic-digit", "quoted", "quoted-line-end",
        "separator-after", "separator-before", "long-field", "whitespace-line", "hash-line",
        "supportive", "space-support", "id-1.0", "id-2**63", "nan", "two-bad-values",
        "bad-byte", "header-only", "blank-lines-only", "repeated-class"])
def test_a_csv_reads_as_the_streamed_reader_reads_it(tmp_path, monkeypatch, text, fast):
    # bit for bit the rows, or the fault's text, that the loader gives with no
    # line left to numpy; numpy reads the file where it reads it the same
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    load = io.load_feature_store_csv if text.startswith(_F) else io.load_weights_csv
    streamed, parse_rows = [], io._parse_rows
    monkeypatch.setattr(io, "_parse_rows", lambda *a: streamed.append(a) or parse_rows(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read(load, path)
    assert (not streamed) == fast

    def no_lines(fh):
        raise ValueError("no line for numpy")
        yield

    monkeypatch.setattr(io, "_loadtxt_lines", no_lines)
    assert got == _read(load, path)


def test_line_numbers_hold_across_blank_lines_and_mixed_line_ends(tmp_path):
    # rows end in CRLF, LF or a lone CR, or add a blank line with LF then
    # CRLF or CRLF then LF: five rows take seven lines, so row 15 is line 23
    ends = ["\r\n", "\n", "\r", "\n\r\n", "\r\n\n"]
    rows = [f"{k % 3},{('support', 'query')[k % 2]},{k}.25,{k}.5" + ends[k % 5]
            for k in range(20)]
    good = "class_id,split,f0,f1\r\n" + "".join(rows)
    path = tmp_path / "mixed.csv"
    path.write_bytes(good.replace(",15.5", ",x").encode())
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:23: could not convert "
                                          r"string to float: 'x'$"):
        io.load_feature_store_csv(path)
    lines = io._parse_rows(stdio.StringIO(good, newline=""), 2, 4)[0]
    assert lines == [2 + 7 * (k // 5) + [0, 1, 2, 3, 5][k % 5] for k in range(20)]


def test_a_quoted_line_end_is_read_as_one_value(tmp_path):
    # a quoted value may hold a line end, which float() strips
    path = tmp_path / "w.csv"
    path.write_text("class_id,w0\n" + "".join(f"{c},1.0\n" for c in range(5)) + '9,"3\n"\n'
                    + "".join(f"{c},1.0\n" for c in range(10, 15)))
    back = io.load_weights_csv(path)
    assert back.class_ids == (*range(5), 9, *range(10, 15)) and back.row(9).tolist() == [3.0]


@pytest.mark.parametrize("text, named", [
    # a split fault comes before a value fault later in the file
    ("class_id,split,f0\n" + "0,query,1.0\n" * 9 + "0,train,1.0\n" + "0,query,1.0\n" * 20
     + "0,query,x\n", "bad.csv:11: unknown split 'train'"),
    # so does a repeated class
    ("class_id,w0\n" + "".join(f"{c},1.0\n" for c in range(20)) + "3,2.0\n" + "30,x\n",
     "bad.csv:22: class 3 appears a second time"),
])
def test_a_loader_fault_before_a_codec_fault_is_named_first(tmp_path, text, named):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    load = io.load_feature_store_csv if text.startswith("class_id,split") else io.load_weights_csv
    with pytest.raises(FormatError, match=re.escape(named) + "$"):
        load(path)


@pytest.mark.parametrize("load, header", [(io.load_feature_store_csv, b"class_id,split,f0"),
                                          (io.load_weights_csv, b"class_id,w0"),
                                          (io.load_embeddings_csv, b"class_id,e0")])
@pytest.mark.parametrize("bad, named", [
    (b"\xff1.0", "byte 0xff is not UTF-8"),
    (b"1" * 200_000, "field larger than field limit (131072)"),
    (b"\xff" + b"1" * 200_000, "field larger than field limit (131072)"),
], ids=["bad-byte", "long-field", "bad-byte-in-a-long-field"])
def test_a_bad_byte_or_an_overlong_field_names_its_line(tmp_path, load, header, bad, named):
    # row 30 of 40 (line 32) holds a byte that is not UTF-8, or a field past
    # csv's size limit: a FormatError naming that line. A field past the
    # limit fails the read of its line, so it is named before a bad byte in it.
    split = b",query" if b"split" in header else b""
    rows = [b"%d%s,1.0" % (c, split) for c in range(40)]
    rows[30] = b"30%s,%s" % (split, bad)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join([header, *rows]) + b"\n")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:32: {named}')}$"):
        load(path)


def test_a_header_field_past_csv_s_size_limit_is_named_at_line_1(tmp_path):
    path = tmp_path / "w.csv"
    path.write_bytes(b"class_id,w" + b"0" * 200_000 + b"\n0,1.0\n")
    named = f"{path}:1: field larger than field limit (131072)"
    with pytest.raises(FormatError, match=f"^{re.escape(named)}$"):
        io.load_weights_csv(path)


def test_a_fault_before_a_bad_byte_in_the_same_text_chunk_is_named_first(tmp_path):
    # the text reader decodes the whole small file at once, so the bad byte
    # on line 5 fails the read before the rows of lines 2-4 are parsed
    path = tmp_path / "w.csv"
    path.write_bytes(b"class_id,w0\n0,1.0\n1,x\n2,2.0\n3,\xff\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:3: could not convert")):
        io.load_weights_csv(path)
    path.write_bytes(b"class_id,w0\n0,1.0\n1,2.0\r2,2.0\r\n3,\xfe\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:5: byte 0xfe is not UTF-8")):
        io.load_weights_csv(path)


def test_a_bad_byte_in_a_quoted_line_end_is_named_at_its_record_s_last_line(tmp_path):
    # as every other fault of a record that spans lines
    path = tmp_path / "w.csv"
    path.write_bytes(b'class_id,w0\n0,1.0\n9,"\xff\n3"\n')
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:4: byte 0xff is not UTF-8')}$"):
        io.load_weights_csv(path)


@pytest.mark.parametrize("load, header", [(io.load_feature_store_csv, b"class_id,split,f0,f"),
                                          (io.load_weights_csv, b"class_id,w0,w"),
                                          (io.load_embeddings_csv, b"class_id,e0,e")])
@pytest.mark.parametrize("line4", [b"2,1.0,2.0", b"2,x,2.0"], ids=["good-rows", "bad-row"])
def test_a_bad_byte_in_the_header_is_named_at_line_1(tmp_path, load, header, line4):
    # a bad byte in a value column's name is named at line 1, whether numpy
    # reads the rows or line 4's fault sends the file to _parse_rows
    split = b",query" if b"split" in header else b""
    rows = [b"%d%s,1.0,2.0" % (c, split) for c in range(2)]
    rows.append(line4.replace(b",", split + b",", 1))
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join([header + b"\xff1", *rows]) + b"\n")
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}:1: byte 0xff is not UTF-8')}$"):
        load(path)
    # a label column with a bad byte is a wrong header, as before
    path.write_bytes(b"\n".join([b"class_id\xff" + header[8:] + b"1", *rows]) + b"\n")
    with pytest.raises(FormatError, match="expected header"):
        load(path)


@pytest.mark.parametrize("text", [
    b"class_id,w0\n0,1.0\n1,2.0\n",  # numpy reads it
    b'class_id,w0\n0,1.0\n1,"2.0"\n',  # the line-by-line reader reads it
    b"class_id,w0\n0,1.0\n1,x\n",  # a value fault
    b"class_id,w0\n0,1.0\n1,\xff\n",  # a bad byte
], ids=["numpy", "quoted", "value-fault", "bad-byte"])
def test_a_csv_load_opens_its_file_once(tmp_path, monkeypatch, text):
    path = tmp_path / "w.csv"
    path.write_bytes(text)
    opened, open_ = [], Path.open
    monkeypatch.setattr(Path, "open", lambda self, *a, **k: opened.append(self) or open_(self, *a, **k))
    try:
        io.load_weights_csv(path)
    except FormatError:
        pass
    assert opened == [path]
