import os
import struct

import numpy as np
import pytest

from cosmo.checkpoint import ArchiveError, load_archive, save_archive


class FailingBuffer:
    """Has a shape for the manifest, then raises when its bytes are taken."""

    shape = (3,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk went away")


def test_crash_mid_save_keeps_previous_archive(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    path = str(ckpt)
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([0.1, -2.5])}
    save_archive(path, {"step": 1}, arrays)
    before = ckpt.read_bytes()

    with pytest.raises(OSError, match="disk went away"):
        save_archive(path, {"step": 2}, {"a": arrays["a"] + 1, "b": FailingBuffer()})

    assert os.listdir(tmp_path) == ["model.ckpt"]
    assert ckpt.read_bytes() == before
    manifest, loaded = load_archive(path)
    assert manifest["step"] == 1
    for name, v in arrays.items():
        assert loaded[name].tobytes() == v.tobytes()


def test_save_overwrites_temp_file_left_by_killed_save(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    (tmp_path / "model.ckpt.tmp").write_bytes(b"half a checkpoint")
    save_archive(str(ckpt), {"step": 3}, {"a": np.ones(2)})
    assert os.listdir(tmp_path) == ["model.ckpt"]
    manifest, loaded = load_archive(str(ckpt))
    assert manifest["step"] == 3 and loaded["a"].tolist() == [1.0, 1.0]


def write_raw(path, manifest: bytes, payload: bytes = b"") -> str:
    path.write_bytes(struct.pack("<Q", len(manifest)) + manifest + payload)
    return str(path)


@pytest.mark.parametrize("manifest", [
    b"\xff\xfe",  # not UTF-8
    b"{not json}",
    b"[1, 2]",  # JSON, but not an object
    b"4",
    b'{"params": [{"shape": [1]}]}',  # an entry without a name
    b'{"params": [{"name": "a"}]}',  # an entry without a shape
    b'{"params": ["a"]}',
    b'{"params": 3}',
    b'{"params": [{"name": "a", "shape": [-1]}]}',
    b'{"params": [{"name": "a", "shape": [1.5]}]}',
], ids=["not-utf8", "not-json", "list", "number", "no-name", "no-shape",
        "entry-not-object", "params-not-list", "negative-dim", "float-dim"])
def test_malformed_manifest_raises_archive_error(tmp_path, manifest):
    path = write_raw(tmp_path / "bad.ckpt", manifest, b"\0" * 16)
    with pytest.raises(ArchiveError, match="bad.ckpt"):
        load_archive(path)
