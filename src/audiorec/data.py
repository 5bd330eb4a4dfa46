"""Interaction and catalog data contracts, file parsing, the timeline split, and
warm/cold user segmentation."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable

import numpy as np

from . import io

ITEM_TYPES = ("audiobook", "podcast")
SIGNALS = ("stream", "follow", "preview", "intent_to_pay")
WEAK_SIGNALS = ("follow", "preview", "intent_to_pay")
# the codes an `Interactions` log gives these
STREAM = SIGNALS.index("stream")
AUDIOBOOK, PODCAST = ITEM_TYPES.index("audiobook"), ITEM_TYPES.index("podcast")

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


_INTERACTION_KEYS = ("user_id", "item_id", "item_type", "signal", "timestamp")
# a record's values in `InteractionRecord` field order
_record_fields = itemgetter(*_INTERACTION_KEYS)


def _check_interaction(obj: dict) -> str | None:
    """The first rule a decoded record breaks, or None for a valid one."""
    try:
        user, item, item_type, signal, ts = _record_fields(obj)
    except KeyError:
        return f"missing key {next(key for key in _INTERACTION_KEYS if key not in obj)!r}"
    if type(user) is not str or not user:
        return "user_id must be a non-empty string"
    if "\x00" in user:
        return "user_id holds a NUL character"
    if type(item) is not str or not item:
        return "item_id must be a non-empty string"
    if "\x00" in item:
        return "item_id holds a NUL character"
    if item_type not in ITEM_TYPES:
        return f"unknown item_type {item_type!r}"
    if signal not in SIGNALS:
        return f"unknown signal {signal!r}"
    if signal in WEAK_SIGNALS and item_type != "audiobook":
        return f"signal {signal!r} is only valid for audiobooks"
    if type(ts) is not int or ts < 0:
        return "timestamp must be a non-negative integer"
    return None


def _undecoded(line: str) -> str:
    """Why a stripped, non-blank line that `io.scan_line` does not decode to
    an object is skipped: the fault `json.loads` names, or that its value
    (`null` included) is not an object."""
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except RecursionError:
        return io.TOO_DEEP
    return "record is not an object"


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
                problem = _check_interaction(obj) if type(obj) is dict else _undecoded(line)
                if problem is None:
                    records.append(InteractionRecord(*_record_fields(obj)))
                else:
                    diagnostics.append(ParseDiagnostic(line_no, problem))
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


def _catalog_line(item: CatalogItem) -> str:
    """`io.canonical_json` of the item's row, its vector as a list of
    floats, formatted directly: the keys in sorted order, each float as its
    `repr` and each string escaped to ASCII, as `json` writes them. An item
    whose vector is not all finite, which `canonical_json` refuses, or whose
    other fields are not all strings goes through `canonical_json`."""
    vector = [float(x) for x in item.content_vector]
    if all(map(math.isfinite, vector)):
        try:
            return (
                f'{{"content_vector":[{",".join(map(float.__repr__, vector))}],'
                f'"genre":{_json_str(item.genre)},"item_id":{_json_str(item.item_id)},'
                f'"item_type":{_json_str(item.item_type)},"language":{_json_str(item.language)}}}'
            )
        except TypeError:  # a field that is not a string
            pass
    return io.canonical_json(
        {
            "item_id": item.item_id,
            "item_type": item.item_type,
            "content_vector": vector,
            "language": item.language,
            "genre": item.genre,
        }
    )


def save_catalog(catalog: dict[str, CatalogItem], path) -> None:
    """One line per item: `io.canonical_json` of its fields, its vector as a
    list of floats."""
    io.write_jsonl(catalog.values(), path, _catalog_line)


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


# the per-record arrays of an `interactions` container, and their dtypes
_RECORD_ARRAYS = {
    "user": np.dtype(np.int32),
    "item": np.dtype(np.int32),
    "item_type": np.dtype(np.uint8),
    "signal": np.dtype(np.uint8),
    "timestamp": np.dtype(np.int64),
}


_FIELDS = attrgetter("user_id", "item_id", "item_type", "signal", "timestamp")


def _coded(ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids, rising, and each of `ids` as its int32 position
    among them."""
    distinct = sorted(set(ids))
    position = {i: c for c, i in enumerate(distinct)}
    return np.array(distinct, dtype=str), np.fromiter(map(position.__getitem__, ids), np.int32, len(ids))


@dataclass(frozen=True, eq=False)
class Interactions:
    """An interaction log as columns: its distinct user and item ids, each
    rising strictly (code-point order, which is Python's string order), and
    one entry per record in log order, naming its user and item by their
    position among those ids, its item type and signal by their position in
    `ITEM_TYPES` and `SIGNALS`, and its timestamp. A code's order is its id's
    order, so sorting codes sorts ids."""

    user_ids: np.ndarray
    item_ids: np.ndarray
    user: np.ndarray
    item: np.ndarray
    item_type: np.ndarray
    signal: np.ndarray
    timestamp: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[InteractionRecord]) -> "Interactions":
        """The columns of records `parse_interactions` accepted, in their
        order. A timestamp past the int64 range raises ValueError."""
        records = list(records)
        users, items, types, signals, stamps = zip(*map(_FIELDS, records)) if records else ((),) * 5
        try:
            timestamp = np.array(stamps, dtype=np.int64)
        except OverflowError:
            late = max(records, key=lambda r: r.timestamp)
            raise ValueError(
                f"timestamp {late.timestamp} of user {late.user_id!r} on item {late.item_id!r} "
                "is past the int64 range"
            ) from None
        (user_ids, user), (item_ids, item) = _coded(users), _coded(items)
        type_code = {t: c for c, t in enumerate(ITEM_TYPES)}
        signal_code = {s: c for c, s in enumerate(SIGNALS)}
        return cls(
            user_ids,
            item_ids,
            user,
            item,
            np.fromiter(map(type_code.__getitem__, types), np.uint8, len(records)),
            np.fromiter(map(signal_code.__getitem__, signals), np.uint8, len(records)),
            timestamp,
        )

    def save(self, path) -> None:
        """Packed container: the type and signal orders in the header; the ids
        as `io.id_column`s and the per-record arrays."""
        arrays = {name: getattr(self, name) for name in _RECORD_ARRAYS}
        arrays.update(user_ids=io.id_column(self.user_ids), item_ids=io.id_column(self.item_ids))
        meta = {"kind": "interactions", "item_types": list(ITEM_TYPES), "signals": list(SIGNALS)}
        io.write_pack(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "Interactions":
        """The log `save` wrote. A container of another kind or a damaged
        one, type or signal orders unlike `ITEM_TYPES` and `SIGNALS`, a
        per-record array of another dtype or of another length than the
        others, ids that do not rise strictly or that no record names, a code
        outside its ids or orders, a weak signal on an item that is not an
        audiobook, or a negative timestamp raises ValueError naming the
        file."""
        meta, arrays = io.read_pack(path, "interactions")
        for name, dtype in _RECORD_ARRAYS.items():
            column = arrays[name]
            if column.dtype != dtype or column.ndim != 1:
                raise ValueError(f"{path}: {name} is a {column.ndim}-D {column.dtype} array, not 1-D {dtype}")
        n_records = len(arrays["user"])
        for name in _RECORD_ARRAYS:
            column = arrays[name]
            if len(column) != n_records:
                raise ValueError(f"{path}: {name} has {len(column)} entries for {n_records} records")
        ids = {}
        for name in ("user", "item"):
            ids[name] = io.column_ids(path, f"{name}_ids", arrays[f"{name}_ids"])
            io.check_rising(path, f"{name}_ids", ids[name])
            codes, n = arrays[name], len(ids[name])
            if n_records and not (codes.min() >= 0 and codes.max() < n):
                raise ValueError(
                    f"{path}: {name}_ids has {n} entries for {name} codes "
                    f"from {codes.min()} to {codes.max()}"
                )
            named = np.bincount(codes, minlength=n).astype(bool)
            if not named.all():
                raise ValueError(f"{path}: {name}_ids lists {str(ids[name][named.argmin()])!r}, which no record names")
        orders = io.meta_values(path, meta, item_types=tuple[str, ...], signals=tuple[str, ...])
        if orders != [list(ITEM_TYPES), list(SIGNALS)]:
            raise ValueError(f"{path}: meta orders {orders} are not {[list(ITEM_TYPES), list(SIGNALS)]}")
        log = cls(ids["user"], ids["item"], *(arrays[name] for name in _RECORD_ARRAYS))
        for name, names in (("item_type", ITEM_TYPES), ("signal", SIGNALS)):
            codes = getattr(log, name)
            if n_records and codes.max() >= len(names):
                raise ValueError(f"{path}: {name} holds a code outside {list(names)}")
        weak = (log.signal != STREAM) & (log.item_type != AUDIOBOOK)
        if weak.any():
            at = int(weak.argmax())
            raise ValueError(
                f"{path}: record {at} gives signal {SIGNALS[log.signal[at]]!r} to a "
                f"{ITEM_TYPES[log.item_type[at]]!r}; it is only valid for audiobooks"
            )
        if n_records and log.timestamp.min() < 0:
            raise ValueError(f"{path}: record {int(log.timestamp.argmin())} has a negative timestamp")
        return log

    def __len__(self) -> int:
        return len(self.user)

    def describe(self, at: int) -> str:
        """Record `at` as an error message names it: its user and time."""
        return f"user {str(self.user_ids[self.user[at]])!r}, t={int(self.timestamp[at])}"

    def window(self, window_days: int, as_of: int | None = None) -> "Interactions":
        """The feature window: the records with
        `as_of - window_days days <= timestamp < as_of`, in log order, over
        the log's id columns, which is what the tower features and the
        baselines read of a user's history. `as_of` defaults to one second
        after the last record."""
        if as_of is None:
            as_of = int(self.timestamp.max()) + 1 if len(self) else 1
        start = as_of - window_days * DAY_SECONDS
        keep = (self.timestamp >= start) & (self.timestamp < as_of)
        return dataclasses.replace(self, **{name: getattr(self, name)[keep] for name in _RECORD_ARRAYS})

    def streams(self, item_type: str) -> np.ndarray:
        """Which records are streams of an item of `item_type`."""
        return (self.signal == STREAM) & (self.item_type == ITEM_TYPES.index(item_type))

    def user_items(self, mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The distinct (user, item) code pairs of the records `mask` selects
        (every record by default), sorted by user, then item."""
        n = max(1, len(self.item_ids))
        user, item = (self.user, self.item) if mask is None else (self.user[mask], self.item[mask])
        return np.divmod(np.unique(user.astype(np.int64) * n + item), n)


def check_catalog(log: Interactions, catalog: dict[str, CatalogItem], what: str = "interaction") -> np.ndarray:
    """Each item code's type code in the catalog. The first record, in log
    order, whose item the catalog lacks raises ValueError naming its user,
    item and time; then so does the first whose item type is not the
    catalog's."""
    listed = [catalog.get(i) for i in log.item_ids.tolist()]
    known = np.array([item is not None for item in listed], dtype=bool)
    if not known.all():
        at = int(known[log.item].argmin())
        raise ValueError(
            f"{what} references item {str(log.item_ids[log.item[at]])!r} absent from the catalog "
            f"({log.describe(at)})"
        )
    types = np.array([ITEM_TYPES.index(item.item_type) for item in listed], dtype=np.uint8)
    wrong = types[log.item] != log.item_type
    if wrong.any():
        at = int(wrong.argmax())
        raise ValueError(
            f"{what} gives item {str(log.item_ids[log.item[at]])!r} type "
            f"{ITEM_TYPES[log.item_type[at]]!r}, but the catalog lists it as "
            f"{ITEM_TYPES[types[log.item[at]]]!r} ({log.describe(at)})"
        )
    return types


def rows_of(ids: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """The row `index` gives each of `ids`, -1 for an id it lacks."""
    return np.array([index.get(i, -1) for i in ids.tolist()], dtype=np.int64)


def profile_means(
    log: Interactions, mask: np.ndarray | None, row_of: np.ndarray, matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each user's mean of the `matrix` rows of the distinct items that their
    records `mask` selects name and that have one (`row_of` by item code),
    for the users with one or more. The rows are added in item-id order, one
    at a time from zero, and divided by their count, as
    `np.mean(rows, axis=0)` computes it, so each mean has its bytes. Returns
    the users' codes and their means, one row each."""
    users, items = log.user_items(mask)
    rows = row_of[items]
    users, rows = users[rows >= 0], rows[rows >= 0]
    starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]]) if len(users) else users
    counts = np.diff(np.r_[starts, len(users)])
    sums = matrix[rows[starts]] + 0.0  # `np.add.reduce` starts from +0.0
    # the k-th rows of every user with more than k, added at once
    for k in range(1, counts.max(initial=1)):
        more = np.flatnonzero(counts > k)
        sums[more] += matrix[rows[starts[more] + k]]
    return users[starts], sums / counts[:, None]


def popularity_ranking(log: Interactions, item_ids: Iterable[str], target_type: str) -> list[str]:
    """`item_ids` by their count of target-type streams in `log`,
    descending, ties by id."""
    counts = np.bincount(log.item[log.streams(target_type)], minlength=len(log.item_ids))
    count = dict(zip(log.item_ids.tolist(), counts.tolist()))
    return sorted(set(item_ids), key=lambda i: (-count.get(i, 0), i))


@dataclass
class LogSplit:
    """The train and holdout logs `split` wrote, as columns, and the time
    between them."""

    train: Interactions
    holdout: Interactions
    split_time: int


def user_segments(split: LogSplit) -> UserSegments:
    """Warm users had at least one audiobook interaction of any signal type
    anywhere in train, not only in the feature window; cold users had none.
    Only users appearing in the holdout are segmented."""
    train = split.train
    holdout_users = set(split.holdout.user_ids.tolist())
    warm_pool = set(train.user_ids[np.unique(train.user[train.item_type == AUDIOBOOK])].tolist())
    warm = holdout_users & warm_pool
    return UserSegments(warm=warm, cold=holdout_users - warm)
