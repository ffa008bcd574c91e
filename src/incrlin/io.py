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
values (finite numbers), skipping blank lines, and returns one row table; the
feature loader adds the split check and hands the table to
``FeatureStore.from_rows``, the vector loader the repeated-class check. The
codec works in blocks of rows (``_block_count``). A file of at most
``BLOCK_BYTES`` is one block, read and written in this process row by row;
weight, embedding and desk-scale feature files are. A larger one is cut into
even blocks of about a quarter of that and mapped over ``pool.fork_map``, one
forked worker per CPU. The writer has each worker format its block into a
text buffer and writes the buffers in order. The reader cuts the file at line
ends in a binary pre-pass that counts the lines before each cut; each worker
reopens the file at its block's byte offset, streams its lines through
``csv.reader`` and hands back the block's rows as one matrix, and the message
of its first fault, so no process holds the file's text. The rows are
checked in file order, each block's fault raised after the loader has checked
the rows before it, so the bytes, the rows and the fault a file is named for
do not depend on the number of workers.

The binary loader checks the header and the file size before it allocates,
reads the labels block by block into one reused record buffer, then re-reads
the blocks and scatters each row into its sorted row of the matrix it hands to
the ``FeatureStore`` constructor; the binary writer fills one reused block of
records at a time from ``to_rows``. Every layout fault (header, fields, split
tags, sizes, short reads, no rows) and every CSV value fault is a
``FormatError`` naming the file and the line or byte offset.
"""
from __future__ import annotations

import csv
import functools
import io as stdio
import itertools
import json
import os
import struct
from pathlib import Path

import numpy as np

from . import pool
from .datamodel import (
    BLOCK_BYTES,
    ClassRegistry,
    EmbeddingTable,
    FeatureStore,
    WeightMatrix,
    row_blocks,
)
from .errors import FormatError, ValidationError

FEATURE_MAGIC = b"FSCF"
FEATURE_VERSION = 1
_SPLITS = ("support", "query")  # indexed by the split tag, 1 = query


def _record_dtype(dimension: int) -> np.dtype:
    """One packed binary record: class id, split tag, features."""
    return np.dtype([("class_id", "<u4"), ("tag", "u1"), ("x", "<f4", (dimension,))])


# --- the CSV codec ---------------------------------------------------------

# The most bytes one value takes in a CSV row: the longest float64 ``repr``
# (``-1.2345678901234567e-308``) and its comma. It bounds the bytes of a row
# when the writer cuts its rows into blocks.
_VALUE_BYTES = 25


def _block_count(n_bytes: int) -> int:
    """The blocks the CSV codec cuts ``n_bytes`` of rows into: one, read or
    written in this process, up to ``BLOCK_BYTES``, where a pool start would
    cost about as much as it saves; above it, even blocks of at most about a
    quarter of ``BLOCK_BYTES`` for ``pool.fork_map``. A block in flight costs
    the parent about twice its size in the pool's result thread, whose freed
    memory malloc keeps, so smaller blocks keep the parent's peak low."""
    return 1 if n_bytes <= BLOCK_BYTES else -(-4 * n_bytes // BLOCK_BYTES)


def _write_rows(write, labels, rows) -> None:
    """Per row, its label fields (a sequence each) and the ``repr`` of each
    value, which reads back exactly, with a CRLF line end, to ``write``."""
    for fields, row in zip(labels, rows):
        write(",".join([*map(str, fields), *map(repr, row.tolist())]) + "\r\n")


def _format_block(columns, rows, start: int, stop: int) -> str:
    """The text of rows ``start:stop``, for a pool worker to hand back."""
    text: list[str] = []
    _write_rows(text.append, zip(*(c[start:stop] for c in columns)), rows[start:stop])
    return "".join(text)


def _write_csv(path, header: list[str], columns, rows: np.ndarray) -> None:
    """A header line, then the rows, each led by its fields of the label
    ``columns`` (a sequence each). The rows of one block go straight to the
    file; those of more are formatted block by block by ``pool.fork_map`` and
    written in order."""
    n, d = rows.shape
    blocks = _block_count(n * d * _VALUE_BYTES)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if blocks < 2:
            _write_rows(fh.write, zip(*columns), rows)
            return
        step = -(-n // blocks)
        starts = range(0, n, step)
        for text in pool.fork_map(functools.partial(_format_block, columns, rows),
                                  starts, [min(i + step, n) for i in starts]):
            fh.write(text)


def _line_blocks(path: Path) -> list[tuple[int, int, int | None]]:
    """The file cut into ``_block_count`` even blocks that end on line ends,
    as (byte offset, lines before the block, lines up to its end or None for
    the end of the file); lines end where the text reader ends them (LF, CRLF
    or a lone CR). A file of one block is not read. A file with a quote is
    one block, since a quoted field may hold a line end."""
    size = path.stat().st_size
    n = _block_count(size)
    if n < 2:
        return [(0, 0, None)]
    step = -(-size // n)
    blocks, offset, line = [], 0, 0
    with path.open("rb") as fh:
        while chunk := fh.read(step):
            chunk += fh.readline()  # on to the next LF
            if b'"' in chunk:
                return [(0, 0, None)]
            stop = line + chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            blocks.append((offset, line, stop))
            offset, line = offset + len(chunk), stop
    blocks[-1] = (*blocks[-1][:2], None)  # the last line may lack its line end
    return blocks


def _read_block(path: Path, width: int, n_fields: int, offset: int, first: int,
                stop: int | None):
    """The data rows of a block of ``_line_blocks`` (from byte ``offset``, the
    lines after the first ``first`` up to line ``stop``) of a CSV whose header
    has ``n_fields`` fields, the first ``width`` of them labels: lists of
    their lines, class ids and other label fields, their (rows, values)
    matrix, and the message of the first fault or None; the rows end before
    the fault. The block at the start of the file skips the header."""
    lines, ids, labels, rows, fault = [], [], [], [], None
    raw = path.open("rb")
    raw.seek(offset)
    with stdio.TextIOWrapper(raw, newline="") as fh:
        reader = csv.reader(fh if stop is None else itertools.islice(fh, stop - first))
        if first == 0:
            next(reader, None)
        try:
            for rec in reader:
                if not rec:
                    continue
                line = first + reader.line_num
                if len(rec) != n_fields:
                    raise FormatError(f"{path}:{line}: expected {n_fields} fields, got {len(rec)}")
                try:
                    cid, values = int(rec[0]), np.array(rec[width:], dtype=np.float64)
                except ValueError as err:
                    raise FormatError(f"{path}:{line}: {err}") from None
                if not -2**63 <= cid < 2**63:
                    raise FormatError(f"{path}:{line}: class id {cid} does not fit 64 bits")
                if not np.isfinite(values).all():
                    raise FormatError(f"{path}:{line}: class {cid} has a non-finite value")
                lines.append(line)
                ids.append(cid)
                labels.append(rec[1:width])
                rows.append(values)
        except FormatError as err:
            fault = str(err)
    return lines, ids, labels, np.array(rows).reshape(len(rows), n_fields - width), fault


def _read_csv(path: Path, label_columns: tuple[str, ...], prefix: str, check):
    """The data rows of a CSV headed ``label_columns`` and at least one value
    column, as (class ids, other label fields, values); the class id is the
    first label and the values, one (rows, d) matrix, are finite float64. The
    loader's ``check(line, class id, other label fields)`` sees each row in
    file order, and raises its own fault before a codec fault later in the
    file is raised. A file without data rows is a fault. The rows of one block
    (``_line_blocks``) are parsed in this process, those of more by
    ``pool.fork_map``."""
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
    width = len(label_columns)
    if not header or tuple(header[:width]) != label_columns or len(header) == width:
        raise FormatError(f"{path}: expected header '{','.join(label_columns)},{prefix}0,...'")
    parse = functools.partial(_read_block, path, width, len(header))
    blocks = _line_blocks(path)
    if len(blocks) == 1:
        parsed = [parse(*blocks[0])]
    else:  # each matrix is copied out of the pool's result thread as it comes
        parsed = [(*rows, values.copy(), fault)
                  for *rows, values, fault in pool.fork_map(parse, *zip(*blocks))]
    ids, labels = [], []
    for block_lines, block_ids, block_labels, _, fault in parsed:
        for row in zip(block_lines, block_ids, block_labels):
            check(*row)
        ids += block_ids
        labels += block_labels
        if fault is not None:
            raise FormatError(fault)
    if not ids:
        raise FormatError(f"{path}: no data rows")
    matrices = [values for *_, values, _ in parsed]
    return ids, labels, matrices[0] if len(matrices) == 1 else np.concatenate(matrices)


# --- feature stores --------------------------------------------------------

def save_feature_store_csv(store: FeatureStore, path) -> None:
    ids, is_query, feats = store.to_rows()
    _write_csv(path, ["class_id", "split"] + [f"f{i}" for i in range(store.dimension)],
               (ids.tolist(), [_SPLITS[q] for q in is_query.tolist()]), feats)


def load_feature_store_csv(path) -> FeatureStore:
    path = Path(path)

    def check(line: int, cid: int, labels: list[str]) -> None:
        if labels[0] not in _SPLITS:
            raise FormatError(f"{path}:{line}: unknown split {labels[0]!r}")

    ids, labels, feats = _read_csv(path, ("class_id", "split"), "f", check)
    return FeatureStore.from_rows(feats.shape[1], ids, [s == "query" for s, in labels], feats)


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
               (ids,), matrix)


def _load_vector_csv(path, prefix: str) -> dict[int, np.ndarray]:
    path = Path(path)
    seen: set[int] = set()

    def check(line: int, cid: int, _) -> None:
        if cid in seen:
            raise FormatError(f"{path}:{line}: class {cid} appears a second time")
        seen.add(cid)

    ids, _, vectors = _read_csv(path, ("class_id",), prefix, check)
    return dict(zip(ids, vectors))


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
