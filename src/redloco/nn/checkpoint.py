"""Versioned checkpoint container.

Layout: 4-byte magic, 8-byte little-endian manifest length, JSON manifest
(layer descriptors, shapes, dtype, format version, free-form meta), then the
flat little-endian float64 parameter arrays in declaration order. Every entry
is tagged ``"dtype": "f64"``; a load refuses any other. Round-trips are
bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from . import layers as L
from .stack import LayerStack, TensorParam

MAGIC = b"RLCK"
FORMAT_VERSION = 1

WIRE = np.dtype("<f8")

_KINDS = {
    "linear": L.Linear, "elu": L.Elu, "tanh": L.Tanh, "conv2d": L.Conv2d,
    "deconv2d": L.Deconv2d, "gru_cell": L.GruCell, "flatten": L.Flatten,
    "reshape": L.Reshape,
}
_TUPLE_FIELDS = {"out_pad", "shape"}


def _desc_to_dict(d: L.LayerDesc) -> dict:
    out = {"kind": d.kind}
    for f in dataclasses.fields(d):
        if f.name == "kind":
            continue
        v = getattr(d, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


def _desc_from_dict(d: dict) -> L.LayerDesc:
    d = dict(d)
    kind = d.pop("kind", None)
    if kind not in _KINDS:
        raise CheckpointError(f"unknown layer kind {kind!r} in checkpoint")
    kwargs = {k: tuple(v) if k in _TUPLE_FIELDS else v for k, v in d.items()}
    try:
        return _KINDS[kind](**kwargs)
    except TypeError as exc:
        raise CheckpointError(f"{kind} layer in checkpoint: {exc}") from exc


def save_checkpoint(path: str | Path, entries: dict[str, LayerStack | TensorParam],
                    meta: dict | None = None) -> None:
    manifest_entries = []
    blobs: list[bytes] = []
    for name, obj in entries.items():
        if isinstance(obj, LayerStack):
            manifest_entries.append({
                "name": name, "type": "stack", "dtype": "f64",
                "input_shape": list(obj.input_shape),
                "layers": [_desc_to_dict(d) for d in obj.descs],
                "params": [{"name": p.name, "shape": list(p.shape)} for p in obj.params()],
            })
            blobs.extend(np.ascontiguousarray(p.values, dtype=WIRE).tobytes()
                         for p in obj.params())
        elif isinstance(obj, TensorParam):
            manifest_entries.append({
                "name": name, "type": "param", "dtype": "f64", "shape": list(obj.shape),
            })
            blobs.append(np.ascontiguousarray(obj.values, dtype=WIRE).tobytes())
        else:
            raise CheckpointError(f"cannot checkpoint object of type {type(obj)!r}")
    manifest = {"format": "redloco-checkpoint", "version": FORMAT_VERSION,
                "meta": meta or {}, "entries": manifest_entries}
    mbytes = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        for b in blobs:
            f.write(b)


def _read_array(raw: bytes, path, shape: tuple[int, ...],
                offset: int) -> tuple[np.ndarray, int]:
    """The array stored at ``offset``, and the offset just past it."""
    n = int(np.prod(shape)) if shape else 1
    end = offset + n * WIRE.itemsize
    if end > len(raw):
        raise CheckpointError(f"{path}: truncated: parameter data needs {end} bytes, "
                              f"file has {len(raw)}")
    return np.frombuffer(raw, dtype=WIRE, count=n, offset=offset).reshape(shape), end


def _field(obj, key: str, where: str):
    """``obj[key]``, or a CheckpointError naming ``where`` and the field."""
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{where}: manifest field {key!r} is missing") from exc


def load_checkpoint(path: str | Path) -> tuple[dict[str, LayerStack | TensorParam], dict]:
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
        raise CheckpointError(f"unsupported checkpoint version {manifest.get('version')}")
    offset = 12 + mlen
    entries: dict[str, LayerStack | TensorParam] = {}
    throwaway = np.random.default_rng(0)
    for e in _field(manifest, "entries", str(path)):
        name = _field(e, "name", f"{path}: entry")
        where = f"{path}: entry {name!r}"
        if e.get("dtype") != "f64":
            raise CheckpointError(f"{where} has dtype {e.get('dtype')!r}; "
                                  f"only 'f64' is supported")
        if _field(e, "type", where) == "stack":
            stack = LayerStack([_desc_from_dict(d) for d in _field(e, "layers", where)],
                               tuple(_field(e, "input_shape", where)), throwaway)
            params = list(stack.params())
            pinfos = _field(e, "params", where)
            if len(params) != len(pinfos):
                raise CheckpointError(f"{where} lists {len(pinfos)} params, "
                                      f"its layers have {len(params)}")
            for p, pinfo in zip(params, pinfos):
                shape = _field(pinfo, "shape", f"{where} param {p.name}")
                arr, offset = _read_array(raw, path, tuple(shape), offset)
                if arr.shape != p.shape:
                    raise CheckpointError(f"{path}: {name}.{p.name} is stored as "
                                          f"{arr.shape}, its layer needs {p.shape}")
                p.values[...] = arr
            entries[name] = stack
        else:
            arr, offset = _read_array(raw, path, tuple(_field(e, "shape", where)), offset)
            entries[name] = TensorParam(name, arr.copy())
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes ({len(raw) - offset})")
    return entries, _field(manifest, "meta", str(path))
