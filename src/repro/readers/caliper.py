"""Reader for cali-JSON ("json-split") profiles → GraphFrame.

The inverse of :mod:`repro.caliper.writer`: rebuilds the call tree from
the node/parent table, attaches per-node metric rows, and carries the
profile globals as GraphFrame metadata.  This is the single-profile
loading path Thicket builds on (the paper: "Thicket uses Hatchet's
readers for loading in a single profile at a time").

Malformed payloads never escape as raw ``KeyError``/``IndexError``:
structural problems raise :class:`repro.errors.SchemaError` naming the
missing/broken section and the source file, and undecodable JSON raises
:class:`repro.errors.ReaderError` chained onto the original
``json.JSONDecodeError`` so the file path is part of the traceback.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ReaderError, SchemaError
from ..frame import DataFrame, Index
from ..graph import Frame, Graph, GraphFrame, Node

__all__ = ["read_cali_json", "read_cali_dict"]

_REQUIRED_SECTIONS = ("nodes", "columns", "data")


def read_cali_dict(payload: Mapping[str, Any],
                   source: Any = None) -> GraphFrame:
    """Build a GraphFrame from a json-split dict.

    ``source`` (a file path, when known) is attached to any
    :class:`SchemaError` raised for a structurally invalid payload.
    """
    if not isinstance(payload, Mapping):
        raise SchemaError(
            f"cali-JSON payload must be an object, got {type(payload).__name__}",
            source=source)
    missing = [s for s in _REQUIRED_SECTIONS if s not in payload]
    if missing:
        raise SchemaError(
            f"cali-JSON payload missing required section(s) "
            f"{', '.join(repr(s) for s in missing)}", source=source)
    node_specs = payload["nodes"]
    columns = payload["columns"]
    data = payload["data"]
    for section, value in (("nodes", node_specs), ("columns", columns),
                           ("data", data)):
        if not isinstance(value, (list, tuple)):
            raise SchemaError(
                f"cali-JSON section {section!r} must be a list, got "
                f"{type(value).__name__}", source=source)
    col_meta = payload.get("column_metadata") or [{} for _ in columns]
    if len(col_meta) < len(columns):
        col_meta = list(col_meta) + [{} for _ in range(len(columns) - len(col_meta))]

    # rebuild the tree
    nodes: list[Node] = []
    roots: list[Node] = []
    for i, spec in enumerate(node_specs):
        if not isinstance(spec, Mapping) or "label" not in spec:
            raise SchemaError(
                f"node entry {i} is not an object with a 'label'",
                source=source)
        node = Node(Frame(name=spec["label"], type=spec.get("column", "path")))
        parent_id = spec.get("parent")
        if parent_id is None:
            roots.append(node)
        else:
            if not isinstance(parent_id, int) or not 0 <= parent_id < i:
                raise SchemaError(
                    f"node entry {i} has dangling parent reference "
                    f"{parent_id!r} (must be an already-defined node id "
                    f"< {i})", source=source)
            nodes[parent_id].connect(node)
        nodes.append(node)
    graph = Graph(roots)

    # locate the structural column (node-id) vs value columns
    try:
        path_pos = columns.index("path")
    except ValueError:
        path_pos = 0
    value_cols = [
        (j, c) for j, c in enumerate(columns)
        if j != path_pos and (not isinstance(col_meta[j], Mapping)
                              or col_meta[j].get("is_value", True))
    ]

    row_nodes: list[Node] = []
    col_values: dict[str, list] = {c: [] for _, c in value_cols}
    for r, row in enumerate(data):
        if not isinstance(row, (list, tuple)) or len(row) != len(columns):
            raise SchemaError(
                f"data row {r} does not match the {len(columns)}-column "
                f"layout", source=source)
        nid = row[path_pos]
        if not isinstance(nid, int) or not 0 <= nid < len(nodes):
            raise SchemaError(
                f"data row {r} references unknown node id {nid!r} "
                f"(profile has {len(nodes)} nodes)", source=source)
        row_nodes.append(nodes[nid])
        for j, c in value_cols:
            v = row[j]
            col_values[c].append(np.nan if v is None else v)

    frame_data: dict[Any, Any] = {"name": [n.frame.name for n in row_nodes]}
    frame_data.update(col_values)
    df = DataFrame(frame_data, index=Index(row_nodes, name="node"))

    exc = [c for c in col_values if "(inc)" not in c]
    inc = [c for c in col_values if "(inc)" in c]
    default = "time (exc)" if "time (exc)" in col_values else None
    return GraphFrame(graph, df, metadata=dict(payload.get("globals", {})),
                      exc_metrics=exc, inc_metrics=inc, default_metric=default)


def read_cali_json(path: str | Path) -> GraphFrame:
    """Read one ``*.json`` profile file from disk."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ReaderError(
            f"invalid JSON in {path}: {e}", source=path) from e
    gf = read_cali_dict(payload, source=path)
    gf.metadata.setdefault("profile.file", str(path))
    return gf
