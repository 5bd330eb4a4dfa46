"""Shared file plumbing: canonical JSON, JSON lines, packed array containers,
hashing, and config-section loading."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

PACK_MAGIC = b"ARPK1\n"


def canonical_json(obj) -> str:
    """Stable JSON text: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(obj) -> str:
    return sha256_bytes(canonical_json(obj).encode("utf-8"))


def dataclass_from_dict(cls, obj: dict, section: str):
    """Build the config dataclass `cls` from one config section, rejecting
    keys it does not declare."""
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    return cls(**obj)


def write_json(obj, path) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_jsonl(records: Iterable[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_json(rec))
            fh.write("\n")


def read_jsonl(path) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def write_pack(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Versioned binary container: JSON header plus raw C-order array payloads.

    Arrays are written in sorted-name order so the container round-trips
    byte-exactly.
    """
    names = sorted(arrays)
    header = {
        "version": 1,
        "meta": meta,
        "arrays": [
            {"name": n, "shape": list(arrays[n].shape), "dtype": str(arrays[n].dtype)}
            for n in names
        ],
    }
    blob = canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(PACK_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n]).tobytes())


def read_pack(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a `write_pack` container. A damaged file (short header, short
    payload, bytes after the last array) raises ValueError naming the path."""
    data = Path(path).read_bytes()
    if not data.startswith(PACK_MAGIC):
        raise ValueError(f"{path}: not a packed array container")
    start = len(PACK_MAGIC) + 4
    if len(data) < start:
        raise ValueError(f"{path}: truncated container header")
    (hlen,) = struct.unpack_from("<I", data, len(PACK_MAGIC))
    offset = start + hlen
    if len(data) < offset:
        raise ValueError(f"{path}: truncated container header")
    try:
        header = json.loads(data[start:offset].decode("utf-8"))
        meta = header["meta"]
        specs = [
            (e["name"], np.dtype(e["dtype"]), tuple(int(n) for n in e["shape"]))
            for e in header["arrays"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed container header ({exc})") from exc
    view = memoryview(data)
    arrays = {}
    for name, dtype, shape in specs:
        nbytes = math.prod(shape) * dtype.itemsize
        if len(data) - offset < nbytes:
            raise ValueError(f"{path}: truncated payload for array {name!r}")
        chunk = view[offset : offset + nbytes]
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} unexpected bytes after the last array")
    return meta, arrays
