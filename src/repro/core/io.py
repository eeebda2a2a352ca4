"""Thicket persistence: lossless, crash-safe JSON round trip.

Analyses are often iterative (the paper's Jupyter workflows); saving a
composed thicket avoids re-reading hundreds of raw profiles, which
makes the saved file the unit of durable state.  The current format,
``repro-thicket-v2``, therefore hardens the store:

* **Atomic writes** — :func:`save_thicket` goes through
  :func:`repro.ioutil.atomic_write_text` (temp file + fsync +
  ``os.replace``), so a crash mid-save leaves the previous store
  intact, never a truncated hybrid.
* **Content checksum** — the document embeds a sha256 of the canonical
  payload encoding; :func:`load_thicket` verifies it and raises
  :class:`repro.errors.CorruptStoreError` on any mismatch, undecodable
  file, or unknown format (never a bare ``json.JSONDecodeError``).
* **Typed dtype hints** — each table records its float columns so a
  sparse thicket's ``NaN`` cells (stored as ``null``) come back as
  ``np.nan`` in a float column, even when the column is entirely NaN.

Legacy ``repro-thicket-v1`` files (no checksum, flat layout) still
load; saving always produces v2.  The payload layout itself is
unchanged: the call graph as a nested literal, node-indexed tables
with positional node references, and the metadata table verbatim.
Table rows are built from whole columns and read back with one
transpose (:func:`columns_to_rows` / :func:`rows_to_columns`), a pair
the ingest checkpoint payloads share.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .. import gcpause
from ..errors import CorruptStoreError, PersistenceError
from ..frame import DataFrame, Index, MultiIndex
from ..graph import Graph
from ..ioutil import atomic_write_text, canonical_json, sha256_of

__all__ = ["thicket_to_json", "thicket_from_json", "save_thicket",
           "load_thicket", "columns_to_rows", "rows_to_columns", "jsonable",
           "FORMAT_V1", "FORMAT_V2"]

FORMAT_V1 = "repro-thicket-v1"
FORMAT_V2 = "repro-thicket-v2"

# thicket_to_json's envelope around the payload text <body>:
# {"checksum":"sha256:<64 hex>","format":"repro-thicket-v2","payload":<body>}
_ENVELOPE_HEAD = '{"checksum":"'
_ENVELOPE_MID = '","format":"%s","payload":' % FORMAT_V2
_CHECKSUM_END = len(_ENVELOPE_HEAD) + len("sha256:") + 64
_BODY_AT = _CHECKSUM_END + len(_ENVELOPE_MID)


def jsonable(v: Any) -> Any:
    """One cell as a JSON value: numpy scalars unwrapped, NaN as null."""
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and np.isnan(v):
        return None
    return v


def columns_to_rows(df: DataFrame) -> list:
    """*df*'s cells as row-major rows, built from whole columns.  The
    rows are tuples; JSON encodes them as arrays.

    Numeric columns convert with one ``tolist()`` each, NaN cells
    becoming ``null`` only where a float column holds NaN; object
    columns are the only ones converted cell by cell.  One transpose
    then yields the rows.  Inverse: :func:`rows_to_columns`.
    """
    cols = []
    for c in df.columns:
        arr = df.column(c)
        if arr.dtype == object:
            cols.append([jsonable(v) for v in arr])
            continue
        values = arr.tolist()
        if arr.dtype.kind == "f":
            for i in np.flatnonzero(np.isnan(arr)).tolist():
                values[i] = None
        cols.append(values)
    if not cols:
        return [() for _ in range(len(df))]
    return list(zip(*cols))


def rows_to_columns(rows: list, columns: list, float_columns) -> dict:
    """Column → values from :func:`columns_to_rows` output.

    The rows are transposed once.  Columns in *float_columns* come back
    as ``float64`` arrays with ``null`` restored to NaN; the rest stay
    value lists for the frame layer's type inference (v1 stores carry
    no float marks and rely on it).  Rows that do not hold one cell per
    column raise :class:`CorruptStoreError`.
    """
    try:
        values = (list(zip(*rows, strict=True)) if rows
                  else [()] * len(columns))
    except ValueError as e:
        raise CorruptStoreError(f"table rows are ragged: {e}",
                                stage="load") from e
    if len(values) != len(columns):
        raise CorruptStoreError(f"table rows hold {len(values)} cells, "
                                f"expected {len(columns)}", stage="load")
    return {c: np.array(v, dtype=np.float64) if c in float_columns
            else list(v) for c, v in zip(columns, values)}


def _encode_key(c: Any) -> Any:
    return list(c) if isinstance(c, tuple) else c


def _decode_key(c: Any) -> Any:
    return tuple(c) if isinstance(c, list) else c


def _float_columns(df: DataFrame) -> list:
    return [_encode_key(c) for c in df.columns
            if df.column(c).dtype.kind == "f"]


def _table_columns(table: dict) -> dict:
    """A stored table's ``data`` as column → values, in column order
    (see :func:`rows_to_columns`)."""
    cols = [_decode_key(c) for c in table["columns"]]
    float_cols = {_decode_key(c) for c in table.get("float_columns", [])}
    return rows_to_columns(table["data"], cols, float_cols)


def thicket_to_payload(tk) -> dict:
    """The checksummed body of a v2 store (no envelope)."""
    node_pos = {n: i for i, n in enumerate(tk.graph.node_order())}

    perf = {
        "columns": [_encode_key(c) for c in tk.dataframe.columns],
        "float_columns": _float_columns(tk.dataframe),
        "index": [[node_pos[t[0]], jsonable(t[1])]
                  for t in tk.dataframe.index.values],
        "index_names": list(tk.dataframe.index.names),
        "data": columns_to_rows(tk.dataframe),
    }
    meta = {
        "columns": [_encode_key(c) for c in tk.metadata.columns],
        "float_columns": _float_columns(tk.metadata),
        "index": [jsonable(p) for p in tk.metadata.index.values],
        "data": columns_to_rows(tk.metadata),
    }
    stats = {
        "columns": [_encode_key(c) for c in tk.statsframe.columns],
        "float_columns": _float_columns(tk.statsframe),
        "index": [node_pos[n] for n in tk.statsframe.index.values],
        "data": columns_to_rows(tk.statsframe),
    }
    return {
        "graph": tk.graph.to_literal(),
        "performance_data": perf,
        "metadata": meta,
        "statsframe": stats,
        "profiles": [jsonable(p) for p in tk.profile],
        "exc_metrics": [_encode_key(m) for m in tk.exc_metrics],
        "inc_metrics": [_encode_key(m) for m in tk.inc_metrics],
        "default_metric": _encode_key(tk.default_metric)
        if tk.default_metric is not None else None,
    }


def thicket_to_json(tk) -> str:
    """Serialize a Thicket to a v2 JSON document (envelope + checksum).

    The serialization is deterministic: save → load → save produces
    byte-identical output.  The payload is encoded once; its text is
    both hashed and spliced into the envelope, which is exactly
    ``canonical_json`` of ``{"checksum", "format", "payload"}``.
    """
    with gcpause.paused():
        body = canonical_json(thicket_to_payload(tk))
        return _ENVELOPE_HEAD + sha256_of(body) + _ENVELOPE_MID + body + "}"


def _writer_layout_payload(text: str) -> dict | None:
    """The payload of a store in :func:`thicket_to_json`'s exact layout
    whose payload text hashes to its checksum, parsed once.  ``None``
    for any other document, which then takes the general path (and
    gets its error messages from there)."""
    if not (text.startswith(_ENVELOPE_HEAD)
            and text.startswith(_ENVELOPE_MID, _CHECKSUM_END)
            and text.endswith("}")):
        return None
    body = text[_BODY_AT:-1]
    if sha256_of(body) != text[len(_ENVELOPE_HEAD):_CHECKSUM_END]:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def _payload_to_thicket(payload: dict):
    from .thicket import Thicket

    graph = Graph.from_literal(payload["graph"])
    nodes = graph.node_order()

    perf_p = payload["performance_data"]
    perf_index = MultiIndex(
        [(nodes[i], pid) for i, pid in perf_p["index"]],
        names=perf_p["index_names"],
    )
    perf = DataFrame(_table_columns(perf_p), index=perf_index)

    meta_p = payload["metadata"]
    metadata = DataFrame(_table_columns(meta_p),
                         index=Index(meta_p["index"], name="profile"))

    stats_p = payload["statsframe"]
    statsframe = DataFrame(_table_columns(stats_p),
                           index=Index([nodes[i] for i in stats_p["index"]],
                                       name="node"))

    default = payload.get("default_metric")
    return Thicket(
        graph, perf, metadata, statsframe=statsframe,
        profiles=payload["profiles"],
        exc_metrics=[_decode_key(m) for m in payload["exc_metrics"]],
        inc_metrics=[_decode_key(m) for m in payload["inc_metrics"]],
        default_metric=_decode_key(default) if default is not None else None,
    )


def thicket_from_json(text: str, source: Any = None):
    """Rebuild a Thicket from :func:`thicket_to_json` output.

    Accepts both the current checksummed ``repro-thicket-v2`` envelope
    and legacy flat ``repro-thicket-v1`` documents.  Every failure mode
    — undecodable JSON, unknown format, checksum mismatch, missing or
    malformed sections — raises :class:`CorruptStoreError` (which is
    also a ``ValueError`` for backward compatibility).

    A v2 store in this writer's exact layout is verified by hashing
    the payload text as read, and only that text is parsed; any other
    layout, and any hash mismatch, is parsed whole and its payload
    re-encoded canonically to check the checksum.
    """
    with gcpause.paused():
        payload = _writer_layout_payload(text)
        if payload is None:
            payload = _checked_payload(text, source)
        try:
            return _payload_to_thicket(payload)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise CorruptStoreError(
                f"store payload is structurally invalid: "
                f"{type(e).__name__}: {e}", source=source) from e


def _checked_payload(text: str, source: Any) -> dict:
    """The payload of any v2 or v1 document, its checksum verified by
    re-encoding the parsed payload canonically."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CorruptStoreError(
            f"store is not valid JSON (truncated or overwritten?): {e}",
            source=source, stage="load") from e
    if not isinstance(doc, dict):
        raise CorruptStoreError(
            f"store is not a JSON object, got {type(doc).__name__}",
            source=source, stage="load")

    fmt = doc.get("format")
    if fmt == FORMAT_V2:
        payload = doc.get("payload")
        if not isinstance(payload, dict):
            raise CorruptStoreError("v2 store has no payload object",
                                    source=source)
        stored = doc.get("checksum")
        actual = sha256_of(canonical_json(payload))
        if stored != actual:
            raise CorruptStoreError(
                f"checksum mismatch: stored {stored!r}, computed "
                f"{actual!r} — the store was modified or corrupted "
                f"after it was written", source=source)
    elif fmt == FORMAT_V1:
        payload = doc  # flat legacy layout, no checksum to verify
    else:
        raise CorruptStoreError(
            f"not a repro thicket store (format={fmt!r}; expected "
            f"{FORMAT_V1!r} or {FORMAT_V2!r})", source=source, stage="load")
    return payload


def save_thicket(tk, path: str | Path) -> Path:
    """Atomically write *tk* to *path* as a checksummed v2 store.

    The write goes temp-file → fsync → ``os.replace``: a crash at any
    point leaves either the old store or the complete new one.
    """
    path = Path(path)
    try:
        return atomic_write_text(path, thicket_to_json(tk))
    except OSError as e:
        raise PersistenceError(f"cannot write thicket store: {e}",
                               source=path, stage="save") from e


def load_thicket(path: str | Path, verify: bool = False):
    """Load a thicket store, verifying its content checksum.

    With ``verify=True`` the cross-component structural invariants are
    additionally checked (:meth:`Thicket.validate`) and a store whose
    components are inconsistent is rejected with
    :class:`CorruptStoreError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as e:
        raise PersistenceError(f"no such thicket store: {path}",
                               source=path, stage="load") from e
    except OSError as e:
        raise PersistenceError(f"cannot read thicket store: {e}",
                               source=path, stage="load") from e
    tk = thicket_from_json(text, source=path)
    if verify:
        report = tk.validate()
        if not report.ok:
            raise CorruptStoreError(
                "store loaded but its components are inconsistent:\n"
                + report.summary(), source=path)
    return tk
