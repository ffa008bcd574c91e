"""File formats: feature stores (CSV and binary), embedding tables, weight
tables, and the class manifest.

Feature CSV: header ``class_id,split,f0,...,f{d-1}`` with split in
{support, query}. Binary form: magic ``FSCF``, little-endian u32 version (=1),
u32 record count, u32 dimension, then per record u32 class_id, u8 split tag
(0=support, 1=query), and d float32 values. Embedding / weight CSVs:
``class_id,e0,...`` / ``class_id,w0,...``. Manifest: JSON object mapping
class_id to {"label": str, "session": int >= 0}.

The three CSVs share one codec. ``_write_csv`` writes each row's label fields,
then ``repr`` of each value, with CRLF line ends. ``pool.fork_map`` formats
its rows: a file of at most ``BLOCK_BYTES`` of rows is one block, formatted in
this process; a larger one is cut into even blocks (``_block_count``), one
forked worker per CPU, and the blocks' text is written in order, so the bytes
do not depend on the number of workers. ``_read_csv`` opens a CSV once, with a
``surrogateescape`` decoder, and checks the header: its label columns, then
any byte that is not UTF-8, named at line 1. It reads the rows with
``np.loadtxt`` and checks them: finite values, then the loader's own check
(the feature loader's split names, the vector loader's repeated classes).
Rows of at most ``BLOCK_BYTES`` are read in this process. More are cut by the
writer's rule into byte ranges that end at line ends, and ``pool.fork_map``
parses them, each worker reading its range through the descriptor it
inherited; text parsing holds the interpreter lock, so threads would take
turns at it. Where numpy fails on any range, reads no row, or a check fails,
``_parse_rows`` reads the whole file again, from the start of the same handle,
line by line through ``csv.reader``, ``int`` and ``float``, skipping blank
lines; that reading defines the format. It names the first fault by its line,
the loader's fault before a codec fault later in the file; a record's byte
that is not UTF-8 is named before the record's other faults. Or, where numpy
only rejected what it allows (a quoted field, ``1_000``), its rows are the
result. numpy is given no line that it would read and ``_parse_rows`` would
not (``_loadtxt_lines``), so both read a file to the same rows, bit for bit.
The feature loader hands its table to ``FeatureStore.from_rows``.

The binary loader checks the header and the file size before it allocates.
Its records' blocks are cut into one contiguous share per CPU (``_shares``),
which ``pool.thread_map`` runs on threads: numpy's field copies and casts and
``os.preadv`` and ``os.pwrite`` release the interpreter lock, and a fork of a
large process costs more than they take. Each share reads its blocks into one
reused record buffer, the buffers of all shares together one ``BLOCK_BYTES``,
and copies the labels and float32 rows out in one pass; a file whose records
are not in store order (by class, then support before query) is read a
second time, each record's row scattered to its sorted row. The fault of the
lowest offset is raised. The float32 matrix goes to the ``FeatureStore``
constructor, which keeps it as it is. The binary writer's shares fill their
buffers from ``to_rows`` and write each block at its offset, so its bytes do
not depend on the number of shares. The threads call only this module's
private functions and numpy: a tracer that wraps the package's public
functions, as the benchmark's does, keeps one call stack for all threads.
``load_feature_store`` reads the magic bytes from
the handle the chosen loader then reads. Every writer (CSV, binary and
manifest) writes a temporary file beside its destination and gives it the
destination's name once it is complete (``staged``), so a failed write leaves
no partial file. Every layout fault (header, fields, split tags, sizes, short
reads, no rows) and every CSV fault (values, a byte that is not UTF-8, a
field past ``csv``'s size limit) is a ``FormatError`` naming the file and the
line or byte offset.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import struct
import warnings
from io import BytesIO, TextIOWrapper
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


@contextlib.contextmanager
def staged(*paths):
    """Temporary names beside ``paths``, for the block to create with mode
    ``"x"`` (``O_CREAT | O_EXCL``, so the umask applies as for any new file)
    and write. Once the block completes they take the place of ``paths``; if
    it fails they are removed, so a failed write leaves every destination as
    it was."""
    temps = [Path(p).with_name(f".{Path(p).name}.{os.getpid()}.tmp") for p in paths]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            # Not os.replace: on ext4, a rename over an existing file first
            # allocates the new file's blocks and starts their writeback; on
            # a 2-vCPU VM that took a 128 MB FSCF save from ~100 to ~190 ms.
            Path(path).unlink(missing_ok=True)
            os.rename(temp, path)
    finally:  # only the temporary files not yet renamed are left
        for temp in temps:
            temp.unlink(missing_ok=True)


@contextlib.contextmanager
def _reading(path):
    """``path`` as a Path and a binary file on it, from its start: ``path``
    itself where it is such a file, which stays open for its opener to close,
    else the file opened here, once."""
    if hasattr(path, "read"):
        path.seek(0)
        yield Path(path.name), path
    else:
        with Path(path).open("rb") as fh:
            yield Path(path), fh


# --- the CSV codec ---------------------------------------------------------

# The most bytes one value takes in a CSV row: the longest float64 ``repr``
# (``-1.2345678901234567e-308``) and its comma. It bounds the bytes of a row
# when the writer cuts its rows into blocks.
_VALUE_BYTES = 25


def _block_count(n_bytes: int) -> int:
    """The blocks the CSV writer cuts ``n_bytes`` of rows into, and the reader
    its byte ranges: one, in this process, up to ``BLOCK_BYTES``, where a
    pool start would cost about as much as it saves; above it, even blocks of
    at most about a quarter of ``BLOCK_BYTES`` for ``pool.fork_map``. A block
    in flight costs the parent about twice its size in the pool's result
    thread, whose freed memory malloc keeps, so smaller blocks keep the
    parent's peak low."""
    return 1 if n_bytes <= BLOCK_BYTES else -(-4 * n_bytes // BLOCK_BYTES)


def _format_block(columns, rows, start: int, stop: int) -> str:
    """The text of rows ``start:stop``: per row, its label fields and the
    ``repr`` of each value, which reads back exactly, with a CRLF line end."""
    labels = zip(*(c[start:stop] for c in columns))
    return "".join(",".join([*map(str, fields), *map(repr, row.tolist())]) + "\r\n"
                   for fields, row in zip(labels, rows[start:stop]))


def _write_csv(path, header: list[str], columns, rows: np.ndarray) -> None:
    """A header line, then the rows, each led by its fields of the label
    ``columns`` (a sequence each), formatted block by block by
    ``pool.fork_map`` (one block runs in this process) and written in order."""
    n, d = rows.shape
    step = max(1, -(-n // _block_count(n * d * _VALUE_BYTES)))
    starts = range(0, n, step)
    with staged(path) as [temp], temp.open("x", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for text in pool.fork_map(functools.partial(_format_block, columns, rows),
                                  starts, [min(i + step, n) for i in starts]):
            fh.write(text)


# Where numpy's parser reads a line that csv.reader and int()/float() reject:
# it strips the ASCII separators \x1c-\x1f around a number as spaces, and it
# has no field size limit.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _loadtxt_lines(fh):
    """The lines of ``fh`` for ``np.loadtxt``, up to one with a separator or a
    field past ``csv``'s size limit, where a ValueError ends the read."""
    limit = csv.field_size_limit()
    for line in fh:
        if any(s in line for s in _SEPARATORS) or (
                len(line) > limit and max(map(len, line.split(","))) > limit):
            raise ValueError("a line for the streamed reader")
        yield line


def _bad_byte(fields) -> int | None:
    """The first byte of ``fields`` that is not UTF-8, which the reader's
    ``surrogateescape`` decoder hands out as a lone surrogate, or None."""
    try:
        ",".join(fields).encode("utf-8")
    except UnicodeEncodeError as err:  # byte b is escaped as U+DC00 + b
        return ord(err.object[err.start]) - 0xDC00
    return None


def _parse_rows(text, width: int, n_fields: int):
    """The data rows of the CSV lines of ``text``, a header first, whose header
    has ``n_fields`` fields, the first ``width`` of them labels: their lines
    (from 1 at the start of ``text``), class ids (int64), other label fields
    ((rows, width - 1) str) and (rows, values) float64 matrix, and the first
    fault as (line, message) or None. A record's byte that is not UTF-8 is
    its first fault, named at the record's last line. The rows end before the
    fault."""
    lines, ids, labels, rows, fault = [], [], [], [], None
    reader = csv.reader(text)
    try:
        next(reader, None)
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            if (byte := _bad_byte(rec)) is not None:
                fault = (line, f"byte 0x{byte:02x} is not UTF-8")
                break
            if len(rec) != n_fields:
                fault = (line, f"expected {n_fields} fields, got {len(rec)}")
                break
            try:
                cid, values = int(rec[0]), np.array(rec[width:], dtype=np.float64)
            except ValueError as err:
                fault = (line, str(err))
                break
            if not -2**63 <= cid < 2**63:
                fault = (line, f"class id {cid} does not fit 64 bits")
                break
            if not np.isfinite(values).all():
                fault = (line, f"class {cid} has a non-finite value")
                break
            lines.append(line)
            ids.append(cid)
            labels.append(rec[1:width])
            rows.append(values)
    except csv.Error as err:  # a field past csv's size limit
        fault = (reader.line_num, str(err))
    n = len(rows)
    return (lines, np.array(ids, dtype=np.int64), np.array(labels, dtype=str).reshape(n, width - 1),
            np.array(rows).reshape(n, n_fields - width), fault)


def _past_line_end(fd: int, pos: int, end: int) -> int:
    """The offset just past the first line end (``\\n``, ``\\r\\n`` or a lone
    ``\\r``, as a text file with ``newline=""`` ends its lines) whose last byte
    is at or past ``pos`` in the file open on ``fd``; ``end`` if none is before it."""
    while pos < end and (chunk := os.pread(fd, min(1 << 16, end - pos), pos)):
        cr, lf = chunk.find(b"\r"), chunk.find(b"\n")
        if cr < 0 and lf < 0:
            pos += len(chunk)
            continue
        i = lf if cr < 0 or 0 <= lf < cr else cr
        pos += i + 1
        return pos + (chunk[i] == 13 and os.pread(fd, 1, pos) == b"\n")
    return end


def _parse_range(fd: int, dtype, start: int, stop: int) -> np.ndarray | None:
    """The rows ``np.loadtxt`` reads from bytes ``start:stop`` of the file open
    on ``fd``, whole lines decoded as ``_read_csv`` decodes them, or None where
    it fails. No comment lines: a '#' line is a fault."""
    data = os.pread(fd, stop - start, start)
    if len(data) != stop - start:  # the file shrank
        return None
    # Decoded a chunk at a time: a StringIO of the whole range would hold 4
    # bytes a character, ~4 MB more peak memory on a 1 MB in-process read.
    lines = _loadtxt_lines(TextIOWrapper(BytesIO(data), encoding="utf-8",
                                         errors="surrogateescape", newline=""))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            return np.loadtxt(lines, dtype=dtype, comments=None, delimiter=",", ndmin=1)
    except ValueError:
        return None


def _numpy_rows(fd: int, header_lines: int, dtype) -> list[np.ndarray]:
    """The rows ``np.loadtxt`` reads from the file open on ``fd`` after its
    header's ``header_lines`` lines, in blocks, or [] where it fails on any.
    The rows are cut as the writer cuts them (``_block_count``), into byte
    ranges that end at line ends: up to ``BLOCK_BYTES``, one range, parsed in
    this process; above it, ranges of about a quarter of ``BLOCK_BYTES``,
    parsed on ``pool.fork_map``."""
    size, start = os.fstat(fd).st_size, 0
    for _ in range(header_lines):
        start = _past_line_end(fd, start, size)
    n, cuts = _block_count(size - start), [start]
    for i in range(1, n):  # a line longer than a range is scanned once
        target = start + i * (size - start) // n
        cuts.append(cuts[-1] if cuts[-1] > target else _past_line_end(fd, target, size))
    cuts.append(size)
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    # Each block is copied as it arrives: the pool's result thread unpickles
    # it in its own malloc arena, which keeps what is freed there, and a
    # 5k x 640 load had left ~23 MB there, on top of the next peak.
    blocks = [b if b is None else b.copy()
              for b in pool.fork_map(functools.partial(_parse_range, fd, dtype), *zip(*ranges))]
    return [] if any(b is None for b in blocks) else blocks


def _read_csv(path, label_columns: tuple[str, ...], prefix: str, check):
    """The data rows of a CSV headed ``label_columns`` and at least one value
    column, as class ids (int64), other label fields ((rows, labels - 1) str)
    and values, a finite float64 (rows, d) matrix. ``path`` is a path or a
    binary file open on one (``_reading``). The loader's ``check(ids,
    labels)`` gives its first bad row as (row, message), or None.
    ``np.loadtxt`` reads the rows (``_numpy_rows``); a file it fails on, reads
    no row from, or whose rows fail a check is read again, through the same
    handle, by ``_parse_rows``, which names the fault or reads the rows. The
    loader's ``check`` sees the rows before a codec fault, so its own fault
    comes first."""
    with _reading(path) as (path, raw):
        # A byte that is not UTF-8 reaches both parsers as a lone surrogate.
        fh = TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="")
        try:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as err:  # a field past csv's size limit
                raise FormatError(f"{path}:1: {err}") from None
            width = len(label_columns)
            if not header or tuple(header[:width]) != label_columns or len(header) == width:
                raise FormatError(f"{path}: expected header '{','.join(label_columns)},{prefix}0,...'")
            if (byte := _bad_byte(header)) is not None:
                raise FormatError(f"{path}:1: byte 0x{byte:02x} is not UTF-8")
            # U8 holds every split name and truncates no longer label to one.
            dtype = [("id", "i8"), ("labels", "U8", (width - 1,)),
                     ("x", "f8", (len(header) - width,))]
            blocks = _numpy_rows(raw.fileno(), reader.line_num, dtype)
            if blocks:
                ids, labels, values = (np.concatenate([b[f] for b in blocks])
                                       for f in ("id", "labels", "x"))
                if ids.size and np.isfinite(values).all() and check(ids, labels) is None:
                    return ids, labels, values
            fh.seek(0)
            lines, ids, labels, values, fault = _parse_rows(fh, width, len(header))
        finally:
            fh.detach()  # the binary file stays open for its opener to close
    bad = check(ids, labels)
    if bad is not None:
        raise FormatError(f"{path}:{lines[bad[0]]}: {bad[1]}")
    if fault is not None:
        raise FormatError(f"{path}:{fault[0]}: {fault[1]}")
    if not lines:
        raise FormatError(f"{path}: no data rows")
    return ids, labels, values


# --- feature stores --------------------------------------------------------

def save_feature_store_csv(store: FeatureStore, path) -> None:
    ids, is_query, feats = store.to_rows()
    _write_csv(path, ["class_id", "split"] + [f"f{i}" for i in range(store.dimension)],
               (ids.tolist(), [_SPLITS[q] for q in is_query.tolist()]), feats)


def load_feature_store_csv(path) -> FeatureStore:
    """The store of a feature CSV. ``path`` is a path or a binary file open on
    one (``_reading``)."""

    def check(ids, labels):
        bad = np.flatnonzero(~np.isin(labels[:, 0], _SPLITS))
        return (bad[0], f"unknown split {str(labels[bad[0], 0])!r}") if bad.size else None

    ids, labels, feats = _read_csv(path, ("class_id", "split"), "f", check)
    return FeatureStore.from_rows(feats.shape[1], ids, labels[:, 0] == "query", feats)


def _shares(n: int, record_bytes: int) -> list[list[tuple[int, int]]]:
    """The blocks of ``n`` records in contiguous shares, one per CPU up to the
    number of blocks of ``BLOCK_BYTES``. Each block holds ``BLOCK_BYTES`` over
    the number of shares, so the shares' record buffers together hold one."""
    k = max(1, min(pool.cpus(), len(row_blocks(n, record_bytes))))
    blocks = row_blocks(n, k * record_bytes)
    cuts = [len(blocks) * i // k for i in range(k + 1)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:])]


def _share_offsets(share, dtype: np.dtype):
    """Each block of ``share`` as (start, stop, byte offset, records), the
    records in one buffer the share reuses."""
    records = np.empty(share[0][1] - share[0][0], dtype=dtype)
    for start, stop in share:
        yield start, stop, 16 + start * dtype.itemsize, records[:stop - start]


def _write_share(fd: int, ids, is_query, feats, dtype, share) -> None:
    for start, stop, offset, block in _share_offsets(share, dtype):
        block["class_id"], block["tag"], block["x"] = (
            ids[start:stop], is_query[start:stop], feats[start:stop])
        data = memoryview(block).cast("B")
        while data:
            written = os.pwrite(fd, data, offset)
            data, offset = data[written:], offset + written


def save_feature_store_binary(store: FeatureStore, path) -> None:
    too_big = [c for c in store.classes if c >= 2**32]
    if too_big:
        raise ValidationError(f"class {too_big[0]} does not fit the binary format's u32 class id")
    ids, is_query, feats = store.to_rows()
    dtype = _record_dtype(store.dimension)
    shares = _shares(ids.size, dtype.itemsize)
    with staged(path) as [temp], temp.open("xb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, ids.size, store.dimension))
        fh.flush()  # the shares write the records after it, each at its offset
        pool.thread_map(functools.partial(_write_share, fh.fileno(), ids, is_query, feats, dtype),
                        shares)


def _read_share(fd: int, path: Path, dtype, share):
    """Each block of ``share`` as (start, stop, records), read into one reused
    buffer; a short read is a fault."""
    for start, stop, offset, block in _share_offsets(share, dtype):
        data, got = memoryview(block).cast("B"), 0
        while got < data.nbytes and (k := os.preadv(fd, [data[got:]], offset + got)):
            got += k
        if got != data.nbytes:
            raise FormatError(f"{path}: short read in records {start}-{stop - 1} at byte "
                              f"offset {offset}")
        yield start, stop, block


def _load_share(fd: int, path: Path, ids, is_query, matrix, share) -> None:
    """The labels and float32 rows of the records of ``share``, each at its
    record's row; a bad split tag is a fault."""
    for start, stop, block in _read_share(fd, path, _record_dtype(matrix.shape[1]), share):
        bad = np.flatnonzero(block["tag"] >= len(_SPLITS))
        if bad.size:
            i = start + int(bad[0])
            raise FormatError(f"{path}: record {i} at byte offset {16 + i * block.itemsize}: "
                              f"unknown split tag {block['tag'][bad[0]]}")
        ids[start:stop], is_query[start:stop] = block["class_id"], block["tag"] == 1
        matrix[start:stop] = block["x"]


def _scatter_share(fd: int, path: Path, dest, matrix, share) -> None:
    """The float32 rows of the records of ``share``, each at its sorted row ``dest``."""
    for start, stop, block in _read_share(fd, path, _record_dtype(matrix.shape[1]), share):
        matrix[dest[start:stop]] = block["x"]


def load_feature_store_binary(path) -> FeatureStore:
    """The store of an FSCF file. ``path`` is a path or a binary file open on
    one (``_reading``)."""
    with _reading(path) as (path, fh):
        fd = fh.fileno()
        head = os.pread(fd, 16, 0)
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
        size = os.fstat(fd).st_size
        if size != 16 + n * dtype.itemsize:
            raise FormatError(f"{path}: expected {16 + n * dtype.itemsize} bytes, got {size}")
        shares = _shares(n, dtype.itemsize)
        ids, is_query = np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
        matrix = np.empty((n, dim), dtype=np.float32)
        pool.thread_map(functools.partial(_load_share, fd, path, ids, is_query, matrix), shares)
        if np.all((ids[1:] > ids[:-1]) | ((ids[1:] == ids[:-1]) & (is_query[1:] >= is_query[:-1]))):
            return FeatureStore(dim, ids, is_query, matrix)
        # Records out of store order: read them again, each row to its sorted row.
        order = np.lexsort((is_query, ids))  # by class, support first; stable
        dest = np.argsort(order)  # the sorted row of each record
        pool.thread_map(functools.partial(_scatter_share, fd, path, dest, matrix), shares)
    return FeatureStore(dim, ids[order], is_query[order], matrix)


def load_feature_store(path) -> FeatureStore:
    """Dispatch on the magic bytes: binary if present, CSV otherwise. The
    loader reads the file opened to read them."""
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(4) == FEATURE_MAGIC:
            return load_feature_store_binary(fh)
        return load_feature_store_csv(fh)


# --- per-class vector tables ------------------------------------------------

def _save_vector_csv(path, prefix: str, ids, matrix: np.ndarray) -> None:
    _write_csv(path, ["class_id"] + [f"{prefix}{i}" for i in range(matrix.shape[1])],
               (ids,), matrix)


def _load_vector_csv(path, prefix: str) -> dict[int, np.ndarray]:
    def check(ids, _):
        _, first = np.unique(ids, return_index=True)
        again = np.ones(ids.size, dtype=bool)
        again[first] = False
        bad = np.flatnonzero(again)
        return (bad[0], f"class {ids[bad[0]]} appears a second time") if bad.size else None

    ids, _, vectors = _read_csv(path, ("class_id",), prefix, check)
    return dict(zip(ids.tolist(), vectors))


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
    with staged(path) as [temp], temp.open("x") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
        plan[t].append(cid)
    return ClassRegistry(plan)
