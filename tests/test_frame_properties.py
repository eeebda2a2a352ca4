"""Property-based tests (hypothesis) for the frame substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import DataFrame, Index, Series, concat_rows, merge
from repro.frame.index import sort_positions

values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
)

float_lists = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32,
              min_value=-1e6, max_value=1e6),
    min_size=1, max_size=40,
)


@given(st.lists(values, max_size=30))
def test_index_unique_is_idempotent(labels):
    idx = Index(labels)
    once = idx.unique()
    twice = once.unique()
    assert list(once) == list(twice)
    assert not once.has_duplicates()


@given(st.lists(values, max_size=20), st.lists(values, max_size=20))
def test_index_set_algebra(a_labels, b_labels):
    a, b = Index(a_labels), Index(b_labels)
    inter = set(a.intersection(b))
    union = set(a.union(b))
    diff = set(a.difference(b))
    assert inter <= union
    assert diff.isdisjoint(set(b.values))
    assert union == set(a.values) | set(b.values)
    assert inter == {v for v in a.values if v in set(b.values)}


@given(float_lists)
def test_sort_positions_is_permutation(vals):
    order = sort_positions(vals)
    assert sorted(order) == list(range(len(vals)))
    out = [vals[i] for i in order]
    assert out == sorted(vals)


@given(float_lists)
def test_series_mean_between_min_max(vals):
    s = Series(vals)
    assert s.min() - 1e-9 <= s.mean() <= s.max() + 1e-9


@given(float_lists, st.floats(-100, 100, allow_nan=False))
def test_series_add_then_subtract_roundtrip(vals, c):
    s = Series(vals)
    back = (s + c) - c
    np.testing.assert_allclose(
        back.values.astype(float), s.values.astype(float), atol=1e-6
    )


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=40))
def test_groupby_partitions_cover_frame(keys):
    df = DataFrame({"k": keys, "v": list(range(len(keys)))})
    gb = df.groupby("k")
    sizes = gb.size()
    assert sum(sizes.values()) == len(df)
    # every row appears in exactly one group
    seen = []
    for _, sub in gb:
        seen.extend(sub.column("v"))
    assert sorted(seen) == list(range(len(keys)))


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30),
       float_lists)
def test_groupby_mean_matches_numpy(keys, vals):
    n = min(len(keys), len(vals))
    keys, vals = keys[:n], vals[:n]
    df = DataFrame({"k": keys, "v": vals})
    out = df.groupby("k").agg({"v": "mean"})
    for key in set(keys):
        expected = np.mean([v for k, v in zip(keys, vals) if k == key])
        got = out.column("v")[out.index.get_loc(key)]
        np.testing.assert_allclose(got, expected, rtol=1e-6)


@given(float_lists, float_lists)
def test_concat_rows_length_and_order(a_vals, b_vals):
    a = DataFrame({"v": a_vals})
    b = DataFrame({"v": b_vals})
    out = concat_rows([a, b])
    assert len(out) == len(a) + len(b)
    np.testing.assert_allclose(
        out.column("v").astype(float),
        np.concatenate([np.asarray(a_vals, float), np.asarray(b_vals, float)]),
        rtol=1e-6,
    )


@settings(max_examples=50)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=15),
       st.lists(st.integers(0, 5), min_size=1, max_size=15))
def test_merge_inner_size_matches_key_products(left_keys, right_keys):
    left = DataFrame({"k": left_keys, "v": list(range(len(left_keys)))})
    right = DataFrame({"k": right_keys, "w": list(range(len(right_keys)))})
    out = merge(left, right, on="k")
    expected = sum(
        left_keys.count(k) * right_keys.count(k) for k in set(left_keys)
    )
    assert len(out) == expected


@given(st.lists(values, min_size=1, max_size=25))
def test_reindex_preserves_present_rows(labels):
    labels = list(dict.fromkeys(labels))  # unique
    df = DataFrame({"v": list(range(len(labels)))}, index=Index(labels))
    shuffled = list(reversed(labels))
    out = df.reindex(shuffled)
    for lbl in labels:
        original = df.column("v")[df.index.get_loc(lbl)]
        got = out.column("v")[out.index.get_loc(lbl)]
        assert float(got) == float(original)


def _infer_reference(values):
    """The per-value type inference ``coerce_column`` was written with."""
    kinds = set()
    for v in values:
        if v is None:
            kinds.add("none")
        elif isinstance(v, (bool, np.bool_)):
            kinds.add("bool")
        elif isinstance(v, (int, np.integer)):
            kinds.add("int")
        elif isinstance(v, (float, np.floating)):
            kinds.add("float")
        else:
            kinds.add("object")
    if kinds <= {"bool"}:
        return np.asarray(values, dtype=bool)
    if kinds <= {"int"}:
        return np.asarray(values, dtype=np.int64)
    if kinds <= {"int", "float", "bool", "none"} and kinds & {"float", "int"}:
        return np.asarray([np.nan if v is None else float(v) for v in values],
                          dtype=np.float64)
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return arr


cells = st.one_of(
    st.none(), st.booleans(), st.integers(-2**62, 2**62),
    st.floats(width=32), st.floats(),
    st.sampled_from([np.bool_(True), np.int64(7), np.int8(-3),
                     np.uint16(9), np.float32(0.1), np.float64(2.25)]),
    st.text(max_size=3), st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


@settings(max_examples=300)
@given(st.lists(cells, max_size=8))
def test_coerce_column_matches_per_value_inference(cells_list):
    from repro.frame.ops import coerce_column

    got, want = coerce_column(list(cells_list)), _infer_reference(cells_list)
    assert got.dtype == want.dtype
    if want.dtype == object:
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))
    else:
        assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f")
