"""The one place gliomics writes files, and the one CSV reader.

A write goes to a unique temp file beside its target, then is renamed over
it, so readers never see half a file and concurrent writers never share a
temp name.  ``.gz`` targets are gzip-compressed with no time stamp and no
file name in the header (RFC 1952: MTIME = 0), so identical data gives
identical bytes on every run.  They are compressed at zlib level 1: noisy
float volumes barely compress, level 9 saves under 1% of level 1's size at
nearly twice the time, and the decompressed payload is the same at every
level.  CSVs carry an optional leading ``#`` provenance line, which
``read_csv`` skips.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import json
import os
from pathlib import Path

_temp_ids = itertools.count()


def write_bytes(path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (gzipped for ``.gz``)."""
    path = Path(path)
    if path.name.endswith(".gz"):
        data = gzip.compress(data, compresslevel=1, mtime=0)
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


def read_csv(path) -> list:
    """Rows as dicts keyed by the header, ``#`` comment lines skipped."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
