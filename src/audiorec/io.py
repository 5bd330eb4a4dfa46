"""Shared file plumbing: canonical JSON, JSON lines, packed array containers,
hashing, and config-section loading."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import json.scanner
import math
import os
import struct
import sys
import types
import typing
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

PACK_MAGIC = b"ARPK1\n"

# `json.dumps` with keywords builds a new encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)

# `_scan_json(text, 0)` is `(value, end)` for the JSON value at the start of
# `text`; it raises StopIteration or JSONDecodeError where there is none. For
# a stripped line it equals `json.loads(line)` when `end == len(line)`, without
# the decoder lookup and whitespace passes `json.loads` makes on every call.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())

# What a reader reports for JSON nested past the interpreter's recursion
# limit, where both the scanner and `json.loads` raise RecursionError.
TOO_DEEP = "invalid JSON: nested too deeply"


def canonical_json(obj) -> str:
    """Stable JSON text: sorted keys, compact separators, no NaN."""
    return _CANONICAL.encode(obj)


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


_SCALARS = (bool, int, float, str, types.NoneType)


@functools.cache
def _fits(hint, kind: type) -> bool:
    """Whether a JSON value of type `kind` fits the scalar annotation `hint`.
    An integer fits a float; a bool fits only a bool."""
    if kind is bool:
        return hint is bool
    return issubclass(kind, (int, float) if hint is float else hint)


@functools.cache
def _parts(hint) -> tuple | None:
    """`typing.get_origin` and `typing.get_args` of an annotation, or None
    for a scalar one, worked out once per annotation."""
    return None if hint in _SCALARS else (typing.get_origin(hint), typing.get_args(hint))


def _admits(hint, value) -> bool:
    """Whether a JSON value fits an annotation: a scalar, `tuple[T, ...]` (an
    array of T), `dict[str, T]` (an object of T) or a union such as
    `X | None`."""
    parts = _parts(hint)
    if parts is None:
        return _fits(hint, type(value))
    origin, args = parts
    if origin is tuple:
        return isinstance(value, (list, tuple)) and _all_admit(args[0], value)
    if origin is dict:
        return isinstance(value, dict) and _all_admit(args[1], value.values())
    return any(_admits(h, value) for h in args)


def _all_admit(hint, values) -> bool:
    """Whether each of `values` fits `hint`. A scalar fits by its type alone,
    so an id list of thousands of strings costs one check per type in it."""
    if hint in _SCALARS:
        return all(_fits(hint, kind) for kind in set(map(type, values)))
    return all(_admits(hint, v) for v in values)


def _wrong_type(name: str, value, hint) -> ValueError:
    what = hint.__name__ if isinstance(hint, type) else hint
    return ValueError(f"{name} must be {what}, got {value!r}")


def check_json_type(name: str, value, hint) -> None:
    """Refuse a JSON value that the annotation `hint` does not admit, with a
    ValueError naming `name`."""
    if not _admits(hint, value):
        raise _wrong_type(name, value, hint)


def meta_values(path, meta, **hints) -> list:
    """The container meta values named by `hints`, in its order; a value whose
    JSON type its annotation does not admit raises ValueError naming the file."""
    for key, hint in hints.items():
        check_json_type(f"{path}: meta {key!r}", meta[key], hint)
    return [meta[key] for key in hints]


def check_rows(path, shape: tuple[int, ...], **columns) -> None:
    """Refuse a container whose matrix, of header shape `shape`, is not 2-D,
    or whose id columns and per-row arrays `columns` do not hold one entry per
    matrix row, with a ValueError naming the file."""
    if len(shape) != 2:
        raise ValueError(f"{path}: matrix has shape {list(shape)}, not rows x columns")
    for name, column in columns.items():
        if len(column) != shape[0]:
            raise ValueError(f"{path}: {name} has {len(column)} entries for {shape[0]} matrix rows")


# get_type_hints evaluates every string annotation anew; once per class is enough
_field_types = functools.cache(typing.get_type_hints)


@functools.cache
def _field_names(cls) -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(cls))


def dataclass_from_dict(cls, obj: dict, section: str):
    """Build the config dataclass `cls` from one config section, rejecting
    keys it does not declare and values its field annotations do not admit.
    JSON arrays become the tuples their fields declare."""
    if not isinstance(obj, dict):
        raise ValueError(f"{section} config must be an object, got {obj!r}")
    unknown = obj.keys() - _field_names(cls)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    hints = _field_types(cls)
    for name, value in obj.items():
        if not _admits(hints[name], value):
            raise _wrong_type(f"{section}.{name}", value, hints[name])
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


def config_from_meta(cls, path, meta, section: str):
    """The config dataclass `cls` that a container's meta stores under
    "config"; a section `dataclass_from_dict` or the class refuses raises
    ValueError naming the file."""
    obj = meta["config"]
    try:
        return dataclass_from_dict(cls, obj, section)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def check_rules(section: str, config, rules) -> None:
    """Refuse a config section on the first `(field, rule, holds)` rule that
    does not hold, with a ValueError naming `<section>.<field>`."""
    for name, rule, holds in rules:
        if not holds:
            raise ValueError(f"{section}.{name} must be {rule}, got {getattr(config, name)!r}")


def number_vector(name: str, value) -> np.ndarray:
    """`value` as a float64 vector when it is a flat, non-empty JSON array of
    numbers (ints or floats, not bools), all finite; otherwise a ValueError
    naming `name`."""
    if type(value) is not list or not value:
        raise ValueError(f"{name} is not a float array: got {value!r}")
    kinds = set(map(type, value))
    if not kinds <= {int, float}:
        if list in kinds:
            raise ValueError(f"{name} is not a flat array")
        bad = next(x for x in value if type(x) not in (int, float))
        raise ValueError(f"{name} is not a float array: could not convert {bad!r} to a number")
    try:
        vec = np.array(value, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        vec = None
    if vec is None or not np.isfinite(vec).all():
        raise ValueError(f"{name} is not a flat array of finite numbers")
    return vec


def write_json(obj, path) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def not_utf8(path) -> ValueError:
    """The error for a text file that failed to decode as UTF-8, naming the
    file and the 1-based line of its first bad byte. A text-mode read reports
    positions within its buffer, so the file is decoded again, whole."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}:{line}: not UTF-8 text: {exc.reason}")
    return ValueError(f"{path}: not UTF-8 text")  # it changed since the failed read


def read_json(path):
    """The JSON document in `path`; text that is not UTF-8 or not JSON raises
    ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: {TOO_DEEP}") from exc


def write_jsonl(records: Iterable, path, encode: Callable[..., str] = canonical_json) -> None:
    """One line per record: `encode(record)`, by default its canonical JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(rec) + "\n" for rec in records)


def scan_line(line: str):
    """The JSON value of a stripped line, or None when the line is not
    exactly one JSON value (or is `null`); `json.loads(line)` then names the
    fault, or raises RecursionError for a value nested too deeply."""
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    return obj if end == len(line) else None


def read_jsonl(path, required: tuple[str, ...] = (), parse: Callable | None = None) -> list:
    """Every non-blank line of a JSON-lines file: its object, or
    `parse(obj, line_no)` when `parse` is given. A line that is not a JSON
    object holding every key in `required`, or whose object `parse` rejects
    with ValueError or TypeError, raises ValueError naming the file and its
    1-based line; so does a byte that is not UTF-8."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = scan_line(line)
                    if obj is None:  # a fault, which `json.loads` names, or `null`
                        obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("record is not an object")
                    for key in required:
                        if key not in obj:
                            raise ValueError(f"missing key {key!r}")
                    out.append(obj if parse is None else parse(obj, line_no))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from exc
                except RecursionError as exc:
                    raise ValueError(f"{path}:{line_no}: {TOO_DEEP}") from exc
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
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


class PackEntries(dict):
    """A container's meta or arrays by name; a name the file lacks raises
    ValueError naming the file instead of KeyError."""

    def __init__(self, path, what: str, entries):
        super().__init__(entries)
        self.path, self.what = path, what

    def __missing__(self, key):
        raise ValueError(f"{self.path}: missing {self.what} {key!r}")


class PackArrays(PackEntries):
    """The arrays `read_pack` read, by name, and in `shapes` the header shape
    of every array the container lists, whether read or skipped."""

    def __init__(self, path, shapes: dict[str, tuple[int, ...]]):
        super().__init__(path, "array", {})
        self.shapes = PackEntries(path, "array", shapes)


# a container names a few dtypes over and over; a string numpy refuses raises
# anew on every read, since `lru_cache` keeps only returned values
_dtype = functools.lru_cache(maxsize=64)(np.dtype)


def _array_spec(entry: dict) -> tuple[str, np.dtype, tuple[int, ...]]:
    """One header entry's (name, dtype, shape). The dtype must be bool, int,
    uint or float; the shape a list of non-negative integers."""
    name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
    if not isinstance(name, str):
        raise ValueError(f"array name {name!r} is not a string")
    if not isinstance(dtype, str) or _dtype(dtype).kind not in "biuf":
        raise ValueError(f"array {name!r} has dtype {dtype!r}, not bool, int, uint or float")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"array {name!r} has shape {shape!r}, not a list of non-negative integers")
    return name, _dtype(dtype), tuple(shape)


def _read_exactly(path, fh, offset: int, out: np.ndarray, name: str) -> None:
    """Fill the contiguous array `out` with the bytes of `fh` at `offset`."""
    fh.seek(offset)
    if fh.readinto(out) != out.nbytes:  # the file shrank after its size was checked
        raise ValueError(f"{path}: truncated payload for array {name!r}")


# the codec of an `id_column` row's bytes: native-order uint32 code points
_ID_CODEC = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


class RowReader:
    """Reads rows along the first axis of one array of a container that
    `read_pack` holds open, and nothing else. A row outside the array raises
    IndexError instead of reading a neighbouring array's bytes."""

    def __init__(self, path, fh, placed: dict[str, tuple[np.dtype, tuple[int, ...], int]]):
        self.path, self._fh, self._placed = path, fh, placed

    def _row(self, name: str, r: int) -> tuple[int, int]:
        """The file offset and byte size of row `r` of array `name`."""
        dtype, shape, offset = self._placed[name]
        if not 0 <= r < shape[0]:
            raise IndexError(f"{self.path}: row {r} of array {name!r}, which has {shape[0]}")
        size = math.prod(shape[1:]) * dtype.itemsize
        return offset + r * size, size

    def __call__(self, name: str, rows: Iterable[int]) -> np.ndarray:
        """The given rows of array `name`, in their order."""
        dtype, shape, _ = self._placed[name]
        rows = list(rows)
        out = np.empty((len(rows), *shape[1:]), dtype)
        for i, r in enumerate(rows):
            _read_exactly(self.path, self._fh, self._row(name, r)[0], out[i : i + 1], name)
        return out

    def id_at(self, name: str, row: int) -> str:
        """The id that `column_ids` reads in row `row` of the id column
        `name`, decoded straight from the row's bytes. A column or a row that
        `column_ids` refuses goes through it, so it is refused with the same
        message."""
        dtype, shape, _ = self._placed[name]
        if dtype != np.uint32 or len(shape) != 2 or shape[1] < 1:
            return column_ids(self.path, name, self(name, [row])).item()
        start, size = self._row(name, row)
        self._fh.seek(start)
        raw = self._fh.read(size)
        if len(raw) != size:  # the file shrank after its size was checked
            raise ValueError(f"{self.path}: truncated payload for array {name!r}")
        try:
            found = raw.decode(_ID_CODEC, "surrogatepass").rstrip("\x00")
        except UnicodeDecodeError:  # a value above U+10FFFF
            found = "\x00"
        if "\x00" in found:  # the row as an array of the bytes read, not of the file
            return column_ids(self.path, name, np.frombuffer(raw, dtype).reshape(1, -1)).item()
        return found


def read_pack(
    path,
    kind: str,
    select: Callable[[PackEntries, PackEntries, RowReader], dict] | None = None,
) -> tuple[PackEntries, PackArrays]:
    """Read a `write_pack` container whose meta names `kind`. A damaged file
    (short header, short payload, bytes after the last array, an array entry
    of another dtype kind or a bad shape, a name listed twice) or one of
    another kind raises ValueError naming the path; so does reading a meta
    key or an array the file does not hold. Every size is checked against
    the file's size before any payload byte is read.

    `select(meta, shapes, read_rows)`, when given, sees the meta and every
    array's header shape once the file passed those checks, and may refuse
    it by raising. `read_rows`, a `RowReader`, reads the given rows along
    the first axis of one array, or one id of an id column, and nothing
    else, so the hook can search a sorted column by reading a few of its
    rows. The hook returns, by array name, `None` to skip that array or the
    row indices along its first axis to read; an array it leaves out is read
    whole. A row index outside an array raises IndexError. Each array is read
    straight into its own writable buffer, so no later rewrite of the file
    can change it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = len(PACK_MAGIC) + 4
        head = fh.read(start)
        if not head.startswith(PACK_MAGIC):
            raise ValueError(f"{path}: not a packed array container")
        if len(head) < start:
            raise ValueError(f"{path}: truncated container header")
        (hlen,) = struct.unpack_from("<I", head, len(PACK_MAGIC))
        offset = start + hlen
        if size < offset:
            raise ValueError(f"{path}: truncated container header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            meta = header["meta"]
            found = meta["kind"]
            specs = [_array_spec(e) for e in header["arrays"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed container header ({exc})") from exc
        if found != kind:
            raise ValueError(f"{path}: container kind is {found!r}, expected {kind!r}")
        shapes, placed = {}, {}
        for name, dtype, shape in specs:
            if name in shapes:
                raise ValueError(f"{path}: array {name!r} listed twice")
            nbytes = math.prod(shape) * dtype.itemsize
            if size - offset < nbytes:
                raise ValueError(f"{path}: truncated payload for array {name!r}")
            shapes[name] = shape
            placed[name] = (dtype, shape, offset)
            offset += nbytes
        if offset != size:
            raise ValueError(f"{path}: {size - offset} unexpected bytes after the last array")

        meta = PackEntries(path, "meta key", meta)
        arrays = PackArrays(path, shapes)
        read_rows = RowReader(path, fh, placed)
        picks = select(meta, arrays.shapes, read_rows) if select else {}
        for name, (dtype, shape, offset) in placed.items():
            if name not in picks:
                arrays[name] = np.empty(shape, dtype)
                _read_exactly(path, fh, offset, arrays[name], name)
            elif picks[name] is not None:
                arrays[name] = read_rows(name, picks[name])
    return meta, arrays


def id_column(ids) -> np.ndarray:
    """The ids as an `(n, width)` uint32 array: each row one id's code
    points, padded with NUL to the longest id (width at least 1), which
    `column_ids` reads back. An id holding a NUL character would lose its
    trailing NULs to the padding, so it raises ValueError."""
    ids = list(ids)
    for i in ids:
        if "\x00" in i:
            raise ValueError(f"id {i!r} holds a NUL character")
    width = max(1, max(map(len, ids), default=0))
    return np.array(ids, dtype=f"U{width}").view(np.uint32).reshape(len(ids), width)


def column_ids(path, name: str, col: np.ndarray) -> np.ndarray:
    """The ids of an `id_column` array `name` of the container `path`, as a
    zero-copy `<U{width}` view of `col`. A column that is not a 2-D uint32
    array at least one wide, a value above U+10FFFF, or a NUL before a
    non-NUL code point in a row (an id holding a NUL) raises ValueError
    naming the file."""
    if col.ndim != 2 or col.dtype != np.uint32 or col.shape[1] < 1:
        raise ValueError(
            f"{path}: {name} is a {col.ndim}-D {col.dtype} array, "
            "not a 2-D uint32 id column at least one code point wide"
        )
    if col.size and col.max() > 0x10FFFF:
        raise ValueError(f"{path}: {name} holds a value above U+10FFFF, not a code point")
    ids = col.view(f"U{col.shape[1]}").reshape(len(col))
    # a string's length counts every code point up to its last non-NUL one
    if np.char.str_len(ids).sum() != np.count_nonzero(col):
        raise ValueError(f"{path}: {name} holds an id with a NUL character")
    return ids


def check_rising(path, name: str, ids: np.ndarray) -> None:
    """Refuse the ids `column_ids` read from the container `path` unless they
    rise strictly, with a ValueError naming the file and a repeated id."""
    rise = ids[1:] > ids[:-1]
    if not rise.all():
        at = int(rise.argmin())
        if ids[at] == ids[at + 1]:
            raise ValueError(f"{path}: {name} lists {str(ids[at])!r} twice")
        raise ValueError(f"{path}: {name} do not rise strictly")
