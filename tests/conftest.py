"""Fixtures shared by the test modules."""

import json
import struct

import pytest

from skelpool import model as M


@pytest.fixture(autouse=True)
def one_blas_thread(monkeypatch):
    """Block sizes and thread counts of a blocked eval forward as with BLAS
    pinned to one thread, as the benchmark runs it, whatever BLAS runs on."""
    monkeypatch.setattr(M, "_blas_threads", lambda: 1)


@pytest.fixture
def eval_threads(monkeypatch):
    """`eval_threads(n)` makes a blocked eval forward score its blocks on up to n
    threads, the calling thread included."""
    return lambda n: monkeypatch.setattr(M, "_eval_workers", lambda: n)


@pytest.fixture
def rewrite_header():
    """`rewrite_header(src, dst, edit)` writes to `dst` the container file `src`
    (a dataset or a checkpoint) with its JSON header text `t` replaced by
    `edit(t)`; the magic, the version and the data blocks stay as they are."""
    def rewrite(src, dst, edit) -> None:
        raw = src.read_bytes()
        (length,) = struct.unpack("<Q", raw[8:16])
        blob = edit(raw[16 : 16 + length].decode("utf-8")).encode("utf-8")
        dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + length :])

    return rewrite


@pytest.fixture
def change_header(rewrite_header):
    """`change_header(src, dst, change)`: `rewrite_header` with `change(doc)`
    applied in place to the parsed header document `doc`."""
    def rewrite(src, dst, change) -> None:
        def edit(text: str) -> str:
            doc = json.loads(text)
            change(doc)
            return json.dumps(doc)

        rewrite_header(src, dst, edit)

    return rewrite
