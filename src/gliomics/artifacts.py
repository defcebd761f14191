"""The one place gliomics reads and writes files.

A write goes to a unique temp file beside its target, then is renamed over
it, so readers never see half a file and concurrent writers never share a
temp name.  ``.gz`` targets are gzip-compressed with no time stamp and no
file name in the header (RFC 1952: MTIME = 0), so identical data gives
identical bytes on every run.  A payload with many zero bytes (a label
map, a subtraction map) is deflated at zlib level 1 with the run-length
strategy (``Z_RLE``), which matches only runs of one repeated byte: on the
phantom's NIfTI files it ran 2.6 times as fast as level 1's default
matching, for 0.2% fewer bytes.  A payload with few zero bytes (a noisy
float volume) has few such runs and is written in stored blocks instead,
which encode 17 times and decode 12 times as fast for 17% more bytes on
the phantom's float volumes.  The decompressed payload is the same under
every setting, and ``read_bytes`` reads both.  CSVs carry an optional
leading ``#`` provenance line, which ``read_csv`` skips.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import json
import math
import os
import zlib
from pathlib import Path

from .errors import GliomicsError, IoFailure, MissingFile

_temp_ids = itertools.count()

# level 1, deflate, a gzip wrapper (wbits 16 + 15) whose header has no name
# and MTIME 0, memLevel 8, run-length matching only
_GZIP_ARGS = (1, zlib.DEFLATED, 31, 8, zlib.Z_RLE)
# a payload with fewer zero bytes than this share is stored (level 0; zlib
# ignores the strategy there and still writes XFL 4).  Zero bytes are the
# runs Z_RLE can match.  On the seed-1 default phantom cohort (2-core host):
# - the 171 float volumes hold 0.8-1.1% zero bytes; deflate saved 14.5% of
#   their bytes, at 0.37 s to encode them all against 0.022 s stored, and
#   0.20 s to decode against 0.016 s;
# - the 57 label maps hold 87-92% zero bytes, and deflate saves 96.7%;
# - a subtraction map holds 44%, and deflate saves 41%.
_STORE_BELOW_ZERO_SHARE = 1 / 8
_GZIP_MAGIC = b"\x1f\x8b"


def read_bytes(path) -> bytes:
    """The bytes of ``path``, gunzipped when they start with the gzip magic.

    One ``gzip.decompress`` call checks the CRC-32 and length trailer, so a
    corrupt or truncated stream raises IoFailure, as does any read failure
    but a missing file, which raises MissingFile.
    """
    try:
        data = Path(path).read_bytes()
        return gzip.decompress(data) if data[:2] == _GZIP_MAGIC else data
    except FileNotFoundError as exc:
        raise MissingFile(f"no such file: {path}") from exc
    except (OSError, EOFError, zlib.error) as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def write_bytes(path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (gzipped for ``.gz``,
    in stored blocks when few of its bytes are zero)."""
    path = Path(path)
    if path.name.endswith(".gz"):
        store = data.count(0) < _STORE_BELOW_ZERO_SHARE * len(data)
        deflate = zlib.compressobj(0 if store else _GZIP_ARGS[0],
                                   *_GZIP_ARGS[1:])
        data = deflate.compress(data) + deflate.flush()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{next(_temp_ids)}.tmp"
    fh = open(tmp, "xb")    # exclusive create, with the umask's permissions
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json(path, payload: dict) -> Path:
    """Sorted keys, two-space indent, trailing newline."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return write_bytes(path, text.encode())


def write_csv(path, rows, provenance: dict = None) -> Path:
    """``\\n``-terminated rows, after a ``# tool_version=... config_digest=...
    seed=...`` line when ``provenance`` is given."""
    buf = io.StringIO()
    if provenance is not None:
        buf.write(f"# tool_version={provenance['tool_version']} "
                  f"config_digest={provenance['config_digest']} "
                  f"seed={provenance['seed']}\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return write_bytes(path, buf.getvalue().encode())


def read_csv(path, columns: dict = None, rest=str, key=()) -> list:
    """Rows as dicts keyed by the header, ``#`` comment lines skipped.

    ``columns`` maps each column the table must have to the type its cells
    are read as (``str``, ``int`` or ``float``), or to the tuple of ints
    its cells may hold; other columns are read as ``rest``.  No two rows
    may hold the same cells in the ``key`` columns, which are names from
    ``columns``.  Bytes that are not UTF-8 CSV text, a column the header
    names twice, a missing column, a row with more or fewer cells than the
    header, a cell that does not convert, an int outside its column's
    tuple, a ``float`` cell that is not finite (``nan``, ``inf``) and a
    repeated key raise GliomicsError naming the file, and the column or the
    row, counted from 1 after the header.
    """
    columns = columns or {}
    choices = {c: kind for c, kind in columns.items()
               if isinstance(kind, tuple)}
    kinds = {**columns, **dict.fromkeys(choices, int)}
    try:
        lines = io.StringIO(read_bytes(path).decode(), newline="")
        table = [cells for cells in csv.reader(
            ln for ln in lines if not ln.startswith("#")) if cells]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise GliomicsError(f"{path}: not a CSV text file: {exc}") from exc
    header = table[0] if table else []
    for name in header:
        if header.count(name) > 1:
            raise GliomicsError(f"{path}: the header names column {name} "
                                f"{header.count(name)} times")
    missing = [c for c in columns if c not in header]
    if missing:
        raise GliomicsError(f"{path}: no {', '.join(missing)} column")
    rows, first_row = [], {}
    for n, cells in enumerate(table[1:], 1):
        if len(cells) != len(header):
            raise GliomicsError(f"{path}: row {n} has {len(cells)} cells, "
                                f"the header {len(header)}")
        record, row = dict(zip(header, cells)), {}
        for name, cell in record.items():
            kind = kinds.get(name, rest)
            try:
                row[name] = value = kind(cell)
            except (TypeError, ValueError) as exc:
                raise GliomicsError(f"{path}: row {n}, column {name}: cannot "
                                    f"read {cell!r} as {kind.__name__}") from exc
            if kind is float and not math.isfinite(value):
                raise GliomicsError(f"{path}: row {n}, column {name}: "
                                    f"{cell!r} is not a finite number")
        for name, allowed in choices.items():
            if row[name] not in allowed:
                raise GliomicsError(
                    f"{path}: row {n}, column {name}: {record[name]!r} is "
                    f"not one of {', '.join(map(str, allowed))}")
        cells = tuple(record[name] for name in key)
        if key and cells in first_row:
            named = ", ".join(f"{k} {c}" for k, c in zip(key, cells))
            raise GliomicsError(f"{path}: row {n}: {named} repeats row "
                                f"{first_row[cells]}")
        first_row[cells] = n
        rows.append(row)
    return rows
