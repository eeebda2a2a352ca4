"""Whole-column codecs: store v2, checkpoint payloads, worker transfer.

The store (``repro-thicket-v2``) and checkpoint (``repro-gf-v1``)
formats are frozen on disk.  The encoders below are the per-cell
reference implementations those formats were first written with; the
whole-column codecs must produce the same bytes on sparse, horizontal
and mixed-metadata inputs, and files written by the reference must
load and re-save byte-identically.  Parallel ingest ships typed
columns from worker to parent, which must compose exactly like a
serial run, dtypes included.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import Thicket, concat_thickets
from repro.caliper import profile_to_cali_dict
from repro.core import stats
from repro.core.io import (
    columns_to_rows,
    load_thicket,
    rows_to_columns,
    save_thicket,
    thicket_from_json,
    thicket_to_json,
)
from repro.errors import CorruptStoreError
from repro.frame import DataFrame
from repro.ingest import CheckpointJournal, load_ensemble
from repro.ingest.checkpoint import _gf_to_payload, _payload_to_gf
from repro.readers import read_cali_dict
from repro.resilience import ResiliencePolicy
from repro.workloads import (
    LASSEN_GPU,
    QUARTZ,
    RAJA_CAMPAIGN,
    generate_rajaperf_profile,
    write_raja_campaign,
)

KERNELS = ["Apps_VOL3D", "Lcals_HYDRO_1D", "Stream_DOT"]

# Sequential, OpenMP and CUDA rows of Fig. 13: three different trees
THREE_TREES = (RAJA_CAMPAIGN[0], RAJA_CAMPAIGN[2], RAJA_CAMPAIGN[4])


# ----------------------------------------------------------------------
# frozen per-cell reference encoders
# ----------------------------------------------------------------------

def _ref_jsonable(v):
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and np.isnan(v):
        return None
    return v


def _ref_key(c):
    return list(c) if isinstance(c, tuple) else c


def _ref_table(df):
    return {
        "columns": [_ref_key(c) for c in df.columns],
        "float_columns": [_ref_key(c) for c in df.columns
                          if df.column(c).dtype.kind == "f"],
        "data": [[_ref_jsonable(df.column(c)[i]) for c in df.columns]
                 for i in range(len(df))],
    }


def ref_thicket_to_json(tk):
    node_pos = {n: i for i, n in enumerate(tk.graph.node_order())}
    perf = _ref_table(tk.dataframe)
    perf["index"] = [[node_pos[t[0]], _ref_jsonable(t[1])]
                     for t in tk.dataframe.index.values]
    perf["index_names"] = list(tk.dataframe.index.names)
    meta = _ref_table(tk.metadata)
    meta["index"] = [_ref_jsonable(p) for p in tk.metadata.index.values]
    stats = _ref_table(tk.statsframe)
    stats["index"] = [node_pos[n] for n in tk.statsframe.index.values]
    payload = {
        "graph": tk.graph.to_literal(),
        "performance_data": perf,
        "metadata": meta,
        "statsframe": stats,
        "profiles": [_ref_jsonable(p) for p in tk.profile],
        "exc_metrics": [_ref_key(m) for m in tk.exc_metrics],
        "inc_metrics": [_ref_key(m) for m in tk.inc_metrics],
        "default_metric": _ref_key(tk.default_metric)
        if tk.default_metric is not None else None,
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = "sha256:" + hashlib.sha256(body.encode()).hexdigest()
    return json.dumps({"format": "repro-thicket-v2", "checksum": checksum,
                       "payload": payload},
                      separators=(",", ":"), sort_keys=True)


def ref_gf_payload_text(gf):
    """A checkpoint payload file as the reference wrote it."""
    node_pos = {n: i for i, n in enumerate(gf.graph.node_order())}
    df = gf.dataframe
    payload = {
        "format": "repro-gf-v1",
        "graph": gf.graph.to_literal(),
        "rows": [node_pos[n] for n in df.index.values],
        "columns": list(df.columns),
        "float_columns": [c for c in df.columns
                          if df.column(c).dtype.kind == "f"],
        "data": [[_ref_jsonable(df.column(c)[i]) for c in df.columns]
                 for i in range(len(df))],
        "metadata": {str(k): _ref_jsonable(v)
                     for k, v in gf.metadata.items()},
        "exc_metrics": list(gf.exc_metrics),
        "inc_metrics": list(gf.inc_metrics),
        "default_metric": gf.default_metric,
    }
    # key order is part of the format: insertion order, as on disk
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _three_tree_gfs():
    gfs = []
    for i, (machine, variant, threads) in enumerate(
            [(QUARTZ, "Sequential", 1), (QUARTZ, "OpenMP", 72),
             (LASSEN_GPU, "CUDA", 1)] * 2):
        prof = generate_rajaperf_profile(
            machine, 1048576 * (1 + i // 3), variant=variant,
            threads=threads, kernels=KERNELS, seed=70 + i,
            block_size=256 if variant == "CUDA" else None,
            topdown=variant != "CUDA")
        gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    return gfs


@pytest.fixture
def sparse_tk():
    """Three trees composed: NaN cells where a tree lacks a metric,
    one all-NaN float column, and metadata mixing int/bool/str/None."""
    tk = Thicket.from_caliperreader(_three_tree_gfs())
    tk.dataframe["all nan"] = np.full(len(tk.dataframe), np.nan)
    n = len(tk.metadata)
    tk.metadata["count"] = np.arange(n, dtype=np.int64)
    tk.metadata["flag"] = np.array([i % 2 == 0 for i in range(n)])
    tk.metadata["note"] = [None if i % 3 == 0 else f"run {i}"
                           for i in range(n)]
    tk.metadata["mixed"] = [[7, True, "s", None, 2.5, np.nan][i % 6]
                            for i in range(n)]
    return tk


@pytest.fixture
def horizontal_tk():
    def make(machine, variant, seed0, **kw):
        gfs = [read_cali_dict(profile_to_cali_dict(generate_rajaperf_profile(
            machine, size, variant=variant, kernels=KERNELS,
            seed=seed0 + i, **kw)))
            for i, size in enumerate((1048576, 4194304))]
        return Thicket.from_caliperreader(gfs)

    return concat_thickets(
        [make(QUARTZ, "Sequential", 1, topdown=True),
         make(LASSEN_GPU, "CUDA", 11)],
        axis="columns", headers=["CPU", "GPU"],
        metadata_key="problem_size", match_on="name")


def _mixed_metadata_gf():
    gf = _three_tree_gfs()[2]
    gf.metadata.update({"count": 3, "flag": False, "label": "x",
                        "missing": None, "ratio": float("nan"),
                        "np int": np.int64(9)})
    return gf


# ----------------------------------------------------------------------
# encoder == reference, byte for byte
# ----------------------------------------------------------------------

class TestStoreMatchesReference:
    def test_sparse_three_tree(self, sparse_tk):
        assert np.isnan(sparse_tk.dataframe.column("time (gpu)")).any()
        assert thicket_to_json(sparse_tk) == ref_thicket_to_json(sparse_tk)
        stats.mean(sparse_tk, ["time (exc)", "time (gpu)"])
        assert sparse_tk.statsframe.columns
        assert thicket_to_json(sparse_tk) == ref_thicket_to_json(sparse_tk)

    def test_horizontal_tuple_keys(self, horizontal_tk):
        assert any(isinstance(c, tuple)
                   for c in horizontal_tk.dataframe.columns)
        assert thicket_to_json(horizontal_tk) == \
            ref_thicket_to_json(horizontal_tk)

    @pytest.mark.parametrize("fixture", ["sparse_tk", "horizontal_tk"])
    def test_reference_store_loads_and_resaves(self, fixture, request,
                                               tmp_path):
        """A store the reference wrote loads and re-saves to the same
        bytes, and save -> load -> save is byte-identical."""
        tk = request.getfixturevalue(fixture)
        path = tmp_path / "ref.json"
        path.write_text(ref_thicket_to_json(tk))
        back = load_thicket(path, verify=True)
        save_thicket(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        assert thicket_to_json(thicket_from_json(thicket_to_json(back))) \
            == path.read_text()


class TestCheckpointMatchesReference:
    @pytest.mark.parametrize("which", ["three_tree", "mixed_metadata"])
    def test_payload_file_bytes(self, which, tmp_path):
        gfs = (_three_tree_gfs() if which == "three_tree"
               else [_mixed_metadata_gf()])
        with CheckpointJournal(tmp_path / "ckpt") as journal:
            for i, gf in enumerate(gfs):
                journal.record_ok(f"src{i}", gf)
                written = journal.payload_path(f"src{i}").read_text()
                assert written == ref_gf_payload_text(gf)

    def test_reference_payload_loads_and_resaves(self):
        for gf in _three_tree_gfs() + [_mixed_metadata_gf()]:
            text = ref_gf_payload_text(gf)
            back = _payload_to_gf(json.loads(text))
            assert json.dumps(_gf_to_payload(back), separators=(",", ":"),
                              sort_keys=False) == text


class TestRowColumnHelpers:
    def test_round_trip_keeps_float_nan_and_objects(self):
        df = DataFrame({"f": [1.5, np.nan], "i": [1, 2], "b": [True, False],
                        "o": ["a", None]})
        rows = columns_to_rows(df)
        assert rows == [(1.5, 1, True, "a"), (None, 2, False, None)]
        cols = rows_to_columns(rows, df.columns, {"f"})
        assert cols["f"].dtype == np.float64 and np.isnan(cols["f"][1])
        assert cols["i"] == [1, 2] and cols["o"] == ["a", None]

    def test_no_columns_keeps_one_row_per_record(self):
        df = DataFrame({}, index=["a", "b", "c"])
        assert columns_to_rows(df) == [(), (), ()]

    def test_ragged_rows_are_corrupt(self):
        with pytest.raises(CorruptStoreError, match="ragged"):
            rows_to_columns([[1, 2], [3]], ["a", "b"], set())
        with pytest.raises(CorruptStoreError, match="expected 3"):
            rows_to_columns([[1, 2]], ["a", "b", "c"], set())


# ----------------------------------------------------------------------
# worker -> parent transfer fidelity
# ----------------------------------------------------------------------

@pytest.fixture
def three_tree_campaign(tmp_path):
    return write_raja_campaign(tmp_path / "campaign", THREE_TREES,
                               scale=0.1, kernels=KERNELS)


def _dtypes(df):
    return {c: (df.column(c).dtype,
                sorted({type(v).__name__ for v in df.column(c)})
                if df.column(c).dtype == object else None)
            for c in df.columns}


class TestParallelTransfer:
    def test_parallel_matches_serial_with_dtypes(self, three_tree_campaign):
        tk_s, _ = load_ensemble(three_tree_campaign)
        tk_p, rep = load_ensemble(three_tree_campaign,
                                  policy=ResiliencePolicy(jobs=2))
        assert rep.jobs == 2 and rep.n_loaded == len(three_tree_campaign)
        assert np.isnan(tk_s.dataframe.column("time (gpu)")).any()
        assert tk_p.to_json() == tk_s.to_json()
        assert _dtypes(tk_p.dataframe) == _dtypes(tk_s.dataframe)
        assert _dtypes(tk_p.metadata) == _dtypes(tk_s.metadata)

    def test_checkpointed_parallel_resumes_identically(
            self, three_tree_campaign, tmp_path):
        serial = load_ensemble(three_tree_campaign).thicket.to_json()
        policy = ResiliencePolicy(jobs=2)
        ckpt = tmp_path / "ckpt"
        first, rep1 = load_ensemble(three_tree_campaign, policy=policy,
                                    checkpoint=ckpt)
        assert rep1.n_resumed == 0
        again, rep2 = load_ensemble(three_tree_campaign, policy=policy,
                                    checkpoint=ckpt)
        assert rep2.n_resumed == len(three_tree_campaign)
        assert first.to_json() == serial
        assert again.to_json() == serial
