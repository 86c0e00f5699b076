"""Versioned container of named float64 arrays.

Layout: 4-byte magic, 8-byte little-endian manifest length, JSON manifest
(format, version, one dtype tag, free-form meta, and each entry's name and
shape), then every array's little-endian float64 bytes in manifest order.
The container knows nothing of networks: what the arrays mean is the
caller's business. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError

MAGIC = b"RLCK"
FORMAT_VERSION = 2

WIRE = np.dtype("<f8")


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    wire = {name: np.asarray(a, dtype=WIRE) for name, a in arrays.items()}
    manifest = {"format": "redloco-checkpoint", "version": FORMAT_VERSION, "dtype": "f64",
                "meta": meta,
                "entries": [{"name": name, "shape": list(a.shape)} for name, a in wire.items()]}
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    tmp = Path(f"{path}.tmp")     # renamed over ``path`` once whole: a failed write leaves it
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(mbytes)))
            f.write(mbytes)
            for a in wire.values():
                f.write(a.tobytes())
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def _field(obj, key: str, where: str):
    """``obj[key]``, or a CheckpointError naming ``where`` and the field."""
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{where}: manifest field {key!r} is missing") from exc


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """The named arrays (read-only views of the file's bytes) and the meta."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated header")
    (mlen,) = struct.unpack("<Q", raw[4:12])
    try:
        manifest = json.loads(raw[12:12 + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: checkpoint format version {manifest.get('version')}, "
                              f"this program reads only version {FORMAT_VERSION}; retrain to "
                              f"write a current checkpoint")
    if manifest.get("dtype") != "f64":
        raise CheckpointError(f"{path}: dtype {manifest.get('dtype')!r}; "
                              f"only 'f64' is supported")
    offset = 12 + mlen
    arrays: dict[str, np.ndarray] = {}
    for e in _field(manifest, "entries", str(path)):
        name = _field(e, "name", f"{path}: entry")
        shape = _field(e, "shape", f"{path}: entry {name!r}")
        if not isinstance(name, str) or name in arrays:
            raise CheckpointError(f"{path}: entry name {name!r} is not a string or repeats")
        if not (isinstance(shape, list)
                and all(isinstance(d, int) and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: entry {name!r} has shape {shape!r}, "
                                  f"not a list of sizes")
        n = int(np.prod(shape))
        end = offset + n * WIRE.itemsize
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated: array data needs {end} bytes, "
                                  f"file has {len(raw)}")
        arrays[name] = np.frombuffer(raw, dtype=WIRE, count=n, offset=offset).reshape(shape)
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes ({len(raw) - offset})")
    return arrays, _field(manifest, "meta", str(path))
