"""Interaction and catalog data contracts, file parsing, the timeline split, and
warm/cold user segmentation."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable

import numpy as np

from . import io

ITEM_TYPES = ("audiobook", "podcast")
SIGNALS = ("stream", "follow", "preview", "intent_to_pay")
WEAK_SIGNALS = ("follow", "preview", "intent_to_pay")

DAY_SECONDS = 86_400


@dataclass(frozen=True)
class InteractionRecord:
    """One user/item event. Weak signals are only valid on audiobooks."""

    user_id: str
    item_id: str
    item_type: str
    signal: str
    timestamp: int


@dataclass(frozen=True)
class CatalogItem:
    item_id: str
    item_type: str
    content_vector: np.ndarray
    language: str
    genre: str


@dataclass
class ParseDiagnostic:
    line_no: int
    message: str


@dataclass
class ParsedInteractions:
    records: list[InteractionRecord]
    diagnostics: list[ParseDiagnostic]


@dataclass
class DatasetSplit:
    train: list[InteractionRecord]
    holdout: list[InteractionRecord]
    split_time: int


@dataclass
class UserSegments:
    warm: set[str]
    cold: set[str]


def record_to_dict(rec: InteractionRecord) -> dict:
    return {
        "user_id": rec.user_id,
        "item_id": rec.item_id,
        "item_type": rec.item_type,
        "signal": rec.signal,
        "timestamp": rec.timestamp,
    }


def _check_interaction(obj: dict) -> str | None:
    for key in ("user_id", "item_id", "item_type", "signal", "timestamp"):
        if key not in obj:
            return f"missing key {key!r}"
    for key in ("user_id", "item_id"):
        if not isinstance(obj[key], str) or not obj[key]:
            return f"{key} must be a non-empty string"
        if "\x00" in obj[key]:
            return f"{key} holds a NUL character"
    if obj["item_type"] not in ITEM_TYPES:
        return f"unknown item_type {obj['item_type']!r}"
    if obj["signal"] not in SIGNALS:
        return f"unknown signal {obj['signal']!r}"
    if obj["signal"] in WEAK_SIGNALS and obj["item_type"] != "audiobook":
        return f"signal {obj['signal']!r} is only valid for audiobooks"
    ts = obj["timestamp"]
    if isinstance(ts, bool) or not isinstance(ts, int) or ts < 0:
        return "timestamp must be a non-negative integer"
    return None


def _parse_line(line: str) -> InteractionRecord | str:
    """One stripped, non-blank line: the record, or why it is skipped."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except RecursionError:
        return io.TOO_DEEP
    if not isinstance(obj, dict):
        return "record is not an object"
    problem = _check_interaction(obj)
    if problem is not None:
        return problem
    return InteractionRecord(
        user_id=obj["user_id"],
        item_id=obj["item_id"],
        item_type=obj["item_type"],
        signal=obj["signal"],
        timestamp=int(obj["timestamp"]),
    )


def parse_interactions(path) -> ParsedInteractions:
    """Parse a JSON-lines interaction file.

    Valid records are returned in file order; malformed lines are skipped and
    reported with their 1-based line number. A file that is not UTF-8 text
    raises ValueError naming it.
    """
    scan_line = io.scan_line  # bound once for the per-line loop
    records: list[InteractionRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = scan_line(line)
                if type(obj) is dict:
                    user, item = obj.get("user_id"), obj.get("item_id")
                    item_type, signal, ts = obj.get("item_type"), obj.get("signal"), obj.get("timestamp")
                    # the record `_check_interaction` accepts, tested at once
                    if (
                        type(user) is str and type(item) is str and user and item
                        and "\x00" not in user and "\x00" not in item
                        and type(ts) is int and ts >= 0
                        and (
                            signal == "stream" and item_type in ITEM_TYPES
                            or item_type == "audiobook" and signal in WEAK_SIGNALS
                        )
                    ):
                        records.append(InteractionRecord(user, item, item_type, signal, ts))
                        continue
                parsed = _parse_line(line)
                if isinstance(parsed, str):
                    diagnostics.append(ParseDiagnostic(line_no, parsed))
                else:
                    records.append(parsed)
    except UnicodeDecodeError as exc:
        raise io.not_utf8(path) from exc
    return ParsedInteractions(records, diagnostics)


def _record_line(rec: InteractionRecord) -> str:
    """`io.canonical_json(record_to_dict(rec))`, formatted directly: the keys
    in sorted order, each string escaped to ASCII as `json` escapes it. A
    record whose timestamp is not an int or whose other fields are not all
    strings goes through `canonical_json`."""
    ts = rec.timestamp
    if type(ts) is int:
        try:
            return (
                f'{{"item_id":{_json_str(rec.item_id)},"item_type":{_json_str(rec.item_type)},'
                f'"signal":{_json_str(rec.signal)},"timestamp":{ts},"user_id":{_json_str(rec.user_id)}}}'
            )
        except TypeError:  # a field that is not a string
            pass
    return io.canonical_json(record_to_dict(rec))


def save_interactions(records: Iterable[InteractionRecord], path) -> None:
    """One line per record: `io.canonical_json(record_to_dict(record))`."""
    io.write_jsonl(records, path, _record_line)


def text_field(obj: dict, key: str) -> str:
    """`obj[key]` when it is a non-empty string; otherwise a ValueError."""
    value = obj[key]
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a non-empty string, got {value!r}")
    return value


CATALOG_KEYS = ("item_id", "item_type", "content_vector", "language", "genre")
# the lists a `catalog.bin` header holds, one entry per item in catalog order
_CATALOG_LISTS = ("item_id", "item_type", "language", "genre")


def parse_catalog(path) -> dict[str, CatalogItem]:
    """Parse a JSON-lines catalog file into a map keyed by item_id, in file
    order, checking one line at a time.

    A malformed line, a duplicate id, an id holding a NUL character, a
    content vector that is not a flat, non-empty array of finite numbers or
    whose dimension is unlike the first line's raises ValueError naming the
    file and the line.
    """
    first_line: dict[str, int] = {}
    dim: int | None = None

    def parse(obj: dict, line_no: int) -> CatalogItem:
        nonlocal dim
        item_id = text_field(obj, "item_id")
        if "\x00" in item_id:  # ids are stored NUL-padded (`io.id_column`)
            raise ValueError(f"item_id {item_id!r} holds a NUL character")
        if item_id in first_line:
            raise ValueError(
                f"duplicate item_id {item_id!r} (lines {first_line[item_id]} and {line_no})"
            )
        if obj["item_type"] not in ITEM_TYPES:
            raise ValueError(f"unknown item_type {obj['item_type']!r}")
        vec = io.number_vector("content_vector", obj["content_vector"])
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ValueError(
                f"content_vector dimension {vec.shape[0]} does not match earlier dimension {dim}"
            )
        first_line[item_id] = line_no
        return CatalogItem(
            item_id=item_id,
            item_type=obj["item_type"],
            content_vector=vec,
            language=text_field(obj, "language"),
            genre=text_field(obj, "genre"),
        )

    items = io.read_jsonl(path, CATALOG_KEYS, parse)
    return {item.item_id: item for item in items}


def save_checked_catalog(catalog: dict[str, CatalogItem], path) -> None:
    """Packed container of a non-empty catalog `parse_catalog` accepted: its
    ids, types, languages and genres as header lists in catalog order, its
    content vectors as the rows of one float64 matrix."""
    items = catalog.values()
    meta = {"kind": "catalog", **{key: [getattr(it, key) for it in items] for key in _CATALOG_LISTS}}
    io.write_pack(path, meta, {"content_vectors": np.stack([it.content_vector for it in items])})


def load_checked_catalog(path) -> dict[str, CatalogItem]:
    """The catalog `save_checked_catalog` wrote, as `parse_catalog` returned
    it: the same ids in the same order, the same strings and vector bytes.
    A container of another kind or a damaged one, a header list whose length
    is not the matrix's row count, a matrix not of float64, an unknown
    item_type or a repeated id raises ValueError naming the file."""
    meta, arrays = io.read_pack(path, "catalog")
    lists = io.meta_values(path, meta, **dict.fromkeys(_CATALOG_LISTS, tuple[str, ...]))
    io.check_rows(path, arrays.shapes["content_vectors"], **dict(zip(_CATALOG_LISTS, lists)))
    ids, types, languages, genres = lists
    vectors = arrays["content_vectors"]
    if vectors.dtype != np.float64:
        raise ValueError(f"{path}: content_vectors is {vectors.dtype}, not float64")
    unknown = set(types) - set(ITEM_TYPES)
    if unknown:
        raise ValueError(f"{path}: unknown item_type {min(unknown)!r}")
    catalog = dict(zip(ids, map(CatalogItem, ids, types, vectors, languages, genres)))
    if len(catalog) != len(ids):
        ordered = sorted(ids)
        repeated = next(a for a, b in zip(ordered, ordered[1:]) if a == b)
        raise ValueError(f"{path}: item_id lists {repeated!r} twice")
    return catalog


def save_catalog(catalog: dict[str, CatalogItem], path) -> None:
    rows = [
        {
            "item_id": item.item_id,
            "item_type": item.item_type,
            "content_vector": [float(x) for x in item.content_vector],
            "language": item.language,
            "genre": item.genre,
        }
        for item in catalog.values()
    ]
    io.write_jsonl(rows, path)


def timeline_split(
    records: list[InteractionRecord],
    split_time: int | None = None,
    holdout_days: int = 14,
) -> DatasetSplit:
    """Partition records at a single global time point.

    Records with timestamp >= split_time land in the holdout. The default
    split point is the maximum timestamp minus `holdout_days` days.
    """
    if not records:
        raise ValueError("cannot split an empty record list")
    ts = [r.timestamp for r in records]
    lo, hi = min(ts), max(ts)
    if split_time is None:
        split_time = hi - holdout_days * DAY_SECONDS
    train = [r for r in records if r.timestamp < split_time]
    holdout = [r for r in records if r.timestamp >= split_time]
    if not train or not holdout:
        side = "train" if not train else "holdout"
        warnings.warn(
            f"split_time {split_time} leaves the {side} side empty "
            f"(timestamps span [{lo}, {hi}])",
            stacklevel=2,
        )
    return DatasetSplit(train=train, holdout=holdout, split_time=int(split_time))


def window_by_user(
    records: list[InteractionRecord], window_days: int, as_of: int | None = None
) -> dict[str, list[InteractionRecord]]:
    """The feature window: each user's records with
    `as_of - window_days days <= timestamp < as_of`, in log order, which is
    what the tower features and the baselines read of a user's history.
    `as_of` defaults to one second after the last record."""
    if as_of is None:
        as_of = max((r.timestamp for r in records), default=0) + 1
    start = as_of - window_days * DAY_SECONDS
    window: dict[str, list[InteractionRecord]] = {}
    for r in records:
        if start <= r.timestamp < as_of:
            window.setdefault(r.user_id, []).append(r)
    return window


def popularity_ranking(
    records: Iterable[InteractionRecord], item_ids: Iterable[str], target_type: str
) -> list[str]:
    """`item_ids` by their count of target-type streams in `records`,
    descending, ties by id."""
    counts = dict.fromkeys(item_ids, 0)
    for r in records:
        if r.signal == "stream" and r.item_type == target_type and r.item_id in counts:
            counts[r.item_id] += 1
    return sorted(counts, key=lambda i: (-counts[i], i))


def user_segments(split: DatasetSplit) -> UserSegments:
    """Warm users had at least one audiobook interaction of any signal type
    anywhere in train, not only in the feature window; cold users had none.
    Only users appearing in the holdout are segmented."""
    holdout_users = {r.user_id for r in split.holdout}
    warm_pool = {
        r.user_id for r in split.train if r.item_type == "audiobook"
    }
    warm = holdout_users & warm_pool
    return UserSegments(warm=warm, cold=holdout_users - warm)
