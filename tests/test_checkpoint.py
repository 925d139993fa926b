import os

import numpy as np
import pytest

from cosmo.checkpoint import load_archive, save_archive


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
