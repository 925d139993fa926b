"""Single-file parameter archive: JSON manifest plus raw float64 buffers.

Layout: 8-byte little-endian manifest length, the manifest JSON (UTF-8),
then one little-endian float64 buffer per named parameter, in manifest order.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np


class ArchiveError(RuntimeError):
    """Manifest and buffers disagree, or the file is not an archive."""


def save_archive(path: str, manifest: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the archive to ``<path>.tmp``, fsync it, rename it over ``path``
    and fsync the directory, so a crash mid-save leaves the old file intact.
    A temporary file left by a killed save is overwritten by the next one."""
    manifest = dict(manifest)
    manifest["params"] = [{"name": k, "shape": list(v.shape)}
                          for k, v in arrays.items()]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for v in arrays.values():
                f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_archive(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 8:
        raise ArchiveError(f"{path}: too short to be an archive")
    (mlen,) = struct.unpack("<Q", raw[:8])
    if 8 + mlen > len(raw):
        raise ArchiveError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:8 + mlen].decode("utf-8"))
        specs = [(spec["name"], tuple(spec["shape"]))
                 for spec in manifest.get("params", [])]
    except (ValueError, AttributeError, KeyError, TypeError) as e:
        # not UTF-8 JSON, not an object, or a params entry without name/shape
        raise ArchiveError(f"{path}: malformed manifest ({e!r})") from None
    arrays: dict[str, np.ndarray] = {}
    offset = 8 + mlen
    for name, shape in specs:
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise ArchiveError(f"{path}: bad shape {list(shape)} for {name}")
        count = math.prod(shape)
        if offset + 8 * count > len(raw):
            raise ArchiveError(f"{path}: buffer for {name} truncated")
        arrays[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    if offset != len(raw):
        raise ArchiveError(f"{path}: {len(raw) - offset} trailing bytes")
    return manifest, arrays
