"""Explicit schema validation for cali-JSON ("json-split") payloads.

The reader (:func:`repro.readers.read_cali_dict`) is deliberately
lenient — it checks only what it needs to build a tree.  This module is
the strict gate the ingestion pipeline runs *before* graph
construction, so a schema-drifted profile from a months-old campaign is
quarantined with a precise message instead of half-loading.

Checks, in order:

* required sections ``nodes``/``columns``/``data`` present and lists;
* ``columns`` entries are strings, ``column_metadata`` (if present)
  matches the column count;
* every node entry is an object with a ``label``; ``parent`` references
  point at an already-defined node (no forward/dangling references);
* every data row matches the column layout, its node-id cell is a
  valid node index, and value cells are numeric or null (wrong-typed
  cells such as a string where a metric belongs are rejected);
* no two data rows claim the same node (duplicate node ids would
  silently double rows on composition);
* NaN / ±inf metric values are *allowed* — they degrade to missing
  values in the NaN-aware statistics layer rather than failing a whole
  profile.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from typing import Any

from ..errors import SchemaError

__all__ = ["validate_cali_payload", "REQUIRED_SECTIONS"]

REQUIRED_SECTIONS = ("nodes", "columns", "data")

_PLAIN_NUMBERS = (float, int)


def _fail(message: str, source: Any) -> None:
    raise SchemaError(message, source=source)


def validate_cali_payload(payload: Any, source: Any = None) -> None:
    """Raise :class:`SchemaError` unless *payload* is valid cali-JSON."""
    if not isinstance(payload, Mapping):
        _fail(f"payload must be a JSON object, got {type(payload).__name__}",
              source)

    missing = [s for s in REQUIRED_SECTIONS if s not in payload]
    if missing:
        _fail("missing required section(s) "
              + ", ".join(repr(s) for s in missing), source)

    nodes = payload["nodes"]
    columns = payload["columns"]
    data = payload["data"]
    for name, section in (("nodes", nodes), ("columns", columns),
                          ("data", data)):
        if not isinstance(section, (list, tuple)):
            _fail(f"section {name!r} must be a list, got "
                  f"{type(section).__name__}", source)

    for j, col in enumerate(columns):
        if not isinstance(col, str):
            _fail(f"column name {j} must be a string, got {col!r}", source)

    col_meta = payload.get("column_metadata")
    if col_meta is not None:
        if not isinstance(col_meta, (list, tuple)):
            _fail("'column_metadata' must be a list", source)
        if len(col_meta) != len(columns):
            _fail(f"'column_metadata' has {len(col_meta)} entries for "
                  f"{len(columns)} columns", source)
        for j, m in enumerate(col_meta):
            if not isinstance(m, Mapping):
                _fail(f"column_metadata entry {j} must be an object", source)

    for i, spec in enumerate(nodes):
        if not isinstance(spec, Mapping):
            _fail(f"node entry {i} must be an object", source)
        if "label" not in spec:
            _fail(f"node entry {i} has no 'label'", source)
        parent = spec.get("parent")
        if parent is not None:
            if isinstance(parent, bool) or not isinstance(parent, int):
                _fail(f"node entry {i} parent must be an integer node id, "
                      f"got {parent!r}", source)
            if not 0 <= parent < i:
                _fail(f"node entry {i} has dangling parent reference "
                      f"{parent} (must point at an earlier node)", source)

    try:
        path_pos = list(columns).index("path")
    except ValueError:
        path_pos = 0

    value_cols = [j for j in range(len(columns)) if j != path_pos and (
        col_meta is None or bool(col_meta[j].get("is_value", True)))]

    seen_nodes: set[int] = set()
    for r, row in enumerate(data):
        if not isinstance(row, (list, tuple)):
            _fail(f"data row {r} must be a list", source)
        if len(row) != len(columns):
            _fail(f"data row {r} has {len(row)} cells for "
                  f"{len(columns)} columns", source)
        if columns:
            nid = row[path_pos]
            if isinstance(nid, bool) or not isinstance(nid, int):
                _fail(f"data row {r} node id must be an integer, "
                      f"got {nid!r}", source)
            if not 0 <= nid < len(nodes):
                _fail(f"data row {r} references unknown node id {nid} "
                      f"(profile has {len(nodes)} nodes)", source)
            if nid in seen_nodes:
                _fail(f"data row {r} duplicates node id {nid} — a node "
                      f"may appear at most once per profile", source)
            seen_nodes.add(nid)
        for j in value_cols:
            cell = row[j]
            # the exact-type test spares the common cells an ABC check
            if cell is None or type(cell) in _PLAIN_NUMBERS \
                    or isinstance(cell, numbers.Number):
                continue  # NaN/inf floats included: handled by NaN-aware stats
            _fail(f"data row {r}, column {columns[j]!r}: metric cell must "
                  f"be numeric or null, got {cell!r}", source)

    globs = payload.get("globals")
    if globs is not None and not isinstance(globs, Mapping):
        _fail("'globals' must be an object of run metadata", source)
