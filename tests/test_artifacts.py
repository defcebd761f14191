"""The single file writer: atomic replacement, unique temp names, the
permissions of a plain ``open()``, deterministic gzip, and the CSV format."""

import gzip
import os
import zlib

import numpy as np
import pytest

from gliomics import artifacts
from gliomics.artifacts import (_GZIP_ARGS, read_bytes, read_csv, write_bytes,
                                write_csv, write_json)
from gliomics.errors import IoFailure

PROV = {"tool_version": "1.2", "config_digest": "ab" * 8, "seed": 7}


class TestWriteBytes:
    def test_creates_parent_directories(self, tmp_path):
        path = write_bytes(tmp_path / "x" / "y" / "out.bin", b"data")
        assert path.read_bytes() == b"data"

    def test_stale_tmp_name_does_not_block(self, tmp_path):
        (tmp_path / "out.json.tmp").mkdir()
        write_json(tmp_path / "out.json", {"a": 1})
        assert (tmp_path / "out.json").read_text() == '{\n  "a": 1\n}\n'

    def test_failed_replace_keeps_old_target(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(artifacts.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_mode_matches_plain_open(self, tmp_path):
        with open(tmp_path / "plain", "wb") as fh:
            fh.write(b"x")
        write_bytes(tmp_path / "artifact", b"x")
        assert ((tmp_path / "artifact").stat().st_mode
                == (tmp_path / "plain").stat().st_mode)

    def test_repeated_writes_leave_only_the_target(self, tmp_path):
        for i in range(3):
            write_bytes(tmp_path / "out.bin", bytes([i]))
        assert os.listdir(tmp_path) == ["out.bin"]
        assert (tmp_path / "out.bin").read_bytes() == b"\x02"

    def test_gzip_has_no_timestamp_or_name(self, tmp_path):
        path = write_bytes(tmp_path / "v.nii.gz", b"payload" * 100)
        blob = path.read_bytes()
        assert blob[:3] == b"\x1f\x8b\x08"
        assert blob[3] == 0                    # FLG: no FNAME, no comment
        assert blob[4:8] == b"\x00\x00\x00\x00"  # MTIME = 0
        assert gzip.decompress(blob) == b"payload" * 100
        again = write_bytes(tmp_path / "w.nii.gz", b"payload" * 100)
        assert again.read_bytes() == blob


def deflated(data: bytes, level: int) -> bytes:
    """``data`` gzipped with the writer's settings at ``level``."""
    deflate = zlib.compressobj(level, *_GZIP_ARGS[1:])
    return deflate.compress(data) + deflate.flush()


# ID1 ID2, CM deflate, FLG 0 (no FNAME), MTIME 0, XFL 4, OS 3
GZIP_HEADER = bytes.fromhex("1f8b0800000000000403")


class TestGzipLevel:
    """A ``.gz`` payload with fewer than 1/8 zero bytes is stored (level 0);
    any other is deflated with ``_GZIP_ARGS`` (level 1, run-length)."""

    @staticmethod
    def payload(n_zero: int, n: int = 4096) -> bytes:
        """``n`` bytes, the first ``n_zero`` of them zero, the rest noise
        over 1..16, which Huffman coding alone would halve."""
        rng = np.random.default_rng(n_zero)
        noise = rng.integers(1, 17, size=n - n_zero, dtype=np.uint8)
        return bytes(n_zero) + noise.tobytes()

    @pytest.mark.parametrize("n_zero, level", [(0, 0), (511, 0), (512, 1),
                                               (4096, 1)])
    def test_level_follows_zero_share(self, tmp_path, n_zero, level):
        data = self.payload(n_zero)
        blob = write_bytes(tmp_path / "v.nii.gz", data).read_bytes()
        assert blob == deflated(data, level)
        assert blob[:10] == GZIP_HEADER
        assert gzip.decompress(blob) == data

    def test_empty_payload(self, tmp_path):
        blob = write_bytes(tmp_path / "e.gz", b"").read_bytes()
        assert blob == deflated(b"", 1)
        assert read_bytes(tmp_path / "e.gz") == b""

    @pytest.mark.parametrize("cut", [1, 5, 8, 4000])
    def test_truncated_stored_stream_raises(self, tmp_path, cut):
        path = write_bytes(tmp_path / "v.nii.gz", self.payload(0))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(IoFailure):
            read_bytes(path)


class TestCsv:
    def test_provenance_line_then_lf_rows(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["a", "b"], [1, "x,y"]], PROV)
        assert path.read_bytes() == (
            b"# tool_version=1.2 config_digest=abababababababab seed=7\n"
            b'a,b\n1,"x,y"\n')

    def test_no_provenance(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["a"], ["1"]])
        assert path.read_bytes() == b"a\n1\n"

    def test_read_skips_comment_lines(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [["a", "b"], [1, "x,y"]], PROV)
        assert read_csv(path) == [{"a": "1", "b": "x,y"}]

    def test_read_header_only(self, tmp_path):
        assert read_csv(write_csv(tmp_path / "t.csv", [["a", "b"]])) == []
