"""File formats: feature stores (CSV and binary), embedding tables, weight
tables, and the class manifest.

Feature CSV: header ``class_id,split,f0,...,f{d-1}`` with split in
{support, query}. Binary form: magic ``FSCF``, little-endian u32 version (=1),
u32 record count, u32 dimension, then per record u32 class_id, u8 split tag
(0=support, 1=query), and d float32 values. Embedding / weight CSVs:
``class_id,e0,...`` / ``class_id,w0,...``. Manifest: JSON object mapping
class_id to {"label": str, "session": int >= 0}.

The three CSVs share one codec. ``_write_csv`` writes each row's label
fields, then ``repr`` of each value, with CRLF line ends. ``_read_csv``
checks the header and each row's field count, class id (fits 64 bits) and
values (finite numbers), skipping blank lines; the feature loader adds the
split check and hands a row table to ``FeatureStore.from_rows``, the vector
loader the repeated-class check. The binary loader checks the header and the
file size before it allocates, reads the labels block by block into one
reused record buffer, then re-reads the blocks and scatters each row into its
sorted row of the matrix it hands to the ``FeatureStore`` constructor; the
binary writer fills one reused block of records at a time from ``to_rows``.
Every layout fault (header, fields, split tags, sizes, short reads, no rows)
and every CSV value fault is a ``FormatError`` naming the file and the line
or byte offset.
"""
from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from .datamodel import ClassRegistry, EmbeddingTable, FeatureStore, WeightMatrix, row_blocks
from .errors import FormatError, ValidationError

FEATURE_MAGIC = b"FSCF"
FEATURE_VERSION = 1
_SPLITS = ("support", "query")  # indexed by the split tag, 1 = query


def _record_dtype(dimension: int) -> np.dtype:
    """One packed binary record: class id, split tag, features."""
    return np.dtype([("class_id", "<u4"), ("tag", "u1"), ("x", "<f4", (dimension,))])


# --- the CSV codec ---------------------------------------------------------

def _write_csv(path, header: list[str], labels, rows) -> None:
    """A header line, then per row its label fields (a sequence each) and the
    ``repr`` of each value, which reads back exactly; CRLF line ends."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for fields, row in zip(labels, rows):
            fh.write(",".join([*map(str, fields), *map(repr, row.tolist())]) + "\r\n")


def _read_csv(path: Path, label_columns: tuple[str, ...], prefix: str):
    """The data rows of a CSV headed ``label_columns`` and at least one value
    column, as ``(line, class id, other label fields, values)``; the class id
    is the first label and the values are finite float64. A file without data
    rows is a fault."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        width = len(label_columns)
        if not header or tuple(header[:width]) != label_columns or len(header) == width:
            raise FormatError(f"{path}: expected header '{','.join(label_columns)},{prefix}0,...'")
        empty = True
        for rec in reader:
            if not rec:
                continue
            line, empty = reader.line_num, False
            if len(rec) != len(header):
                raise FormatError(f"{path}:{line}: expected {len(header)} fields, got {len(rec)}")
            try:
                cid, values = int(rec[0]), np.array(rec[width:], dtype=np.float64)
            except ValueError as err:
                raise FormatError(f"{path}:{line}: {err}") from None
            if not -2**63 <= cid < 2**63:
                raise FormatError(f"{path}:{line}: class id {cid} does not fit 64 bits")
            if not np.isfinite(values).all():
                raise FormatError(f"{path}:{line}: class {cid} has a non-finite value")
            yield line, cid, rec[1:width], values
    if empty:
        raise FormatError(f"{path}: no data rows")


# --- feature stores --------------------------------------------------------

def save_feature_store_csv(store: FeatureStore, path) -> None:
    ids, is_query, feats = store.to_rows()
    _write_csv(path, ["class_id", "split"] + [f"f{i}" for i in range(store.dimension)],
               ((c, _SPLITS[q]) for c, q in zip(ids.tolist(), is_query.tolist())), feats)


def load_feature_store_csv(path) -> FeatureStore:
    path = Path(path)
    ids, is_query, feats = [], [], []
    for line, cid, (split,), values in _read_csv(path, ("class_id", "split"), "f"):
        if split not in _SPLITS:
            raise FormatError(f"{path}:{line}: unknown split {split!r}")
        ids.append(cid)
        is_query.append(split == "query")
        feats.append(values)
    return FeatureStore.from_rows(feats[0].size, ids, is_query, np.array(feats))


def save_feature_store_binary(store: FeatureStore, path) -> None:
    too_big = [c for c in store.classes if c >= 2**32]
    if too_big:
        raise ValidationError(f"class {too_big[0]} does not fit the binary format's u32 class id")
    ids, is_query, feats = store.to_rows()
    blocks = row_blocks(ids.size, _record_dtype(store.dimension).itemsize)
    records = np.empty(blocks[0][1], dtype=_record_dtype(store.dimension))
    with Path(path).open("wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, ids.size, store.dimension))
        for start, stop in blocks:  # one reused block of records, straight from the matrix
            block = records[:stop - start]
            block["class_id"], block["tag"], block["x"] = (
                ids[start:stop], is_query[start:stop], feats[start:stop])
            fh.write(block.data)


def _read_blocks(fh, path: Path, blocks, records: np.ndarray):
    """Each block's records, read from the first record on into one reused buffer."""
    fh.seek(16)
    for start, stop in blocks:
        block = records[:stop - start]
        if fh.readinto(block) != block.nbytes:
            raise FormatError(f"{path}: short read in records {start}-{stop - 1} at byte "
                              f"offset {16 + start * records.itemsize}")
        yield start, stop, block


def load_feature_store_binary(path) -> FeatureStore:
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(16)
        if head[:4] != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic bytes, not a feature store")
        if len(head) < 16:
            raise FormatError(f"{path}: truncated header")
        version, n, dim = struct.unpack_from("<III", head, 4)
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported version {version} (expected {FEATURE_VERSION})")
        if dim == 0:
            raise FormatError(f"{path}: feature dimension is 0")
        if n == 0:
            raise FormatError(f"{path}: no records")
        dtype = _record_dtype(dim)
        size = os.fstat(fh.fileno()).st_size
        if size != 16 + n * dtype.itemsize:
            raise FormatError(f"{path}: expected {16 + n * dtype.itemsize} bytes, got {size}")
        blocks = row_blocks(n, dtype.itemsize)
        records = np.empty(blocks[0][1], dtype=dtype)
        ids, is_query = np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
        for start, stop, block in _read_blocks(fh, path, blocks, records):  # pass 1: labels
            bad = np.flatnonzero(block["tag"] >= len(_SPLITS))
            if bad.size:
                i = start + int(bad[0])
                raise FormatError(f"{path}: record {i} at byte offset {16 + i * dtype.itemsize}: "
                                  f"unknown split tag {block['tag'][bad[0]]}")
            ids[start:stop], is_query[start:stop] = block["class_id"], block["tag"] == 1
        order = np.lexsort((is_query, ids))  # by class, support first; stable
        dest = np.argsort(order)  # the sorted row of each record
        matrix = np.empty((n, dim))
        for start, stop, block in _read_blocks(fh, path, blocks, records):  # pass 2: rows
            matrix[dest[start:stop]] = block["x"]
    return FeatureStore(dim, ids[order], is_query[order], matrix)


def load_feature_store(path) -> FeatureStore:
    """Dispatch on the magic bytes: binary if present, CSV otherwise."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(4)
    if head == FEATURE_MAGIC:
        return load_feature_store_binary(path)
    return load_feature_store_csv(path)


# --- per-class vector tables ------------------------------------------------

def _save_vector_csv(path, prefix: str, ids, matrix: np.ndarray) -> None:
    _write_csv(path, ["class_id"] + [f"{prefix}{i}" for i in range(matrix.shape[1])],
               ((c,) for c in ids), matrix)


def _load_vector_csv(path, prefix: str) -> dict[int, np.ndarray]:
    path = Path(path)
    items: dict[int, np.ndarray] = {}
    for line, cid, _, vector in _read_csv(path, ("class_id",), prefix):
        if cid in items:
            raise FormatError(f"{path}:{line}: class {cid} appears a second time")
        items[cid] = vector
    return items


def save_embeddings_csv(table: EmbeddingTable, path) -> None:
    _save_vector_csv(path, "e", table.classes, np.stack([table.vector(c) for c in table.classes]))


def load_embeddings_csv(path) -> EmbeddingTable:
    return EmbeddingTable(_load_vector_csv(path, "e"))


def save_weights_csv(weights: WeightMatrix, path) -> None:
    ids = sorted(weights.class_ids)
    _save_vector_csv(path, "w", ids, weights.subset(ids))


def load_weights_csv(path) -> WeightMatrix:
    items = _load_vector_csv(path, "w")
    ids = sorted(items)
    return WeightMatrix(ids, np.stack([items[c] for c in ids]))


# --- manifest ---------------------------------------------------------------

def save_manifest(path, labels: dict[int, str], sessions: dict[int, int]) -> None:
    obj = {str(c): {"label": labels.get(c, f"class_{c}"), "session": int(sessions[c])}
           for c in sorted(sessions)}
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> tuple[dict[int, str], dict[int, int]]:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(obj, dict) or not obj:
        raise FormatError(f"{path}: manifest must be a non-empty JSON object")
    labels: dict[int, str] = {}
    sessions: dict[int, int] = {}
    for key, entry in obj.items():
        try:
            cid = int(key)
            label, session = str(entry["label"]), entry["session"]
        except (ValueError, TypeError, KeyError):
            raise FormatError(f"{path}: bad manifest entry for key {key!r}") from None
        if type(session) is not int or session < 0:  # not isinstance: a JSON true is an int
            raise FormatError(f"{path}: key {key!r}: session must be a non-negative "
                              f"integer, got {session!r}")
        if cid in labels:
            raise FormatError(f"{path}: key {key!r} names class {cid} a second time")
        labels[cid], sessions[cid] = label, session
    return labels, sessions


def registry_from_manifest(sessions: dict[int, int]) -> ClassRegistry:
    """Build the session plan recorded in a manifest."""
    if not sessions:
        raise FormatError("manifest assigns no classes")
    n = max(sessions.values()) + 1
    if min(sessions.values()) != 0:
        raise FormatError("manifest must assign session 0 (base) classes")
    plan: list[list[int]] = [[] for _ in range(n)]
    for cid, t in sessions.items():
        if not 0 <= t < n:
            raise FormatError(f"class {cid}: bad session index {t}")
        plan[t].append(cid)
    return ClassRegistry(plan)
