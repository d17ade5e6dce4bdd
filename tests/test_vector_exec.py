"""Vectorized execution core: typed buffers, selection bitmaps, vector paths.

Edge cases the differential fuzz suite is unlikely to hit by chance:

* codec ``decode_buffer``/``decode_all``/``decode`` agreement on empty
  pages, single values, single-value runs, and mixed-sign integers;
* numpy-present vs numpy-absent parity (``repro.vector`` falls back to
  stdlib ``array`` — same values, only the container changes);
* all-null columns (only representable through ``RecordSerializer`` null
  bitmaps; single-field vector chunks reject ``None`` outright);
* ``ColumnBatch`` selection-bitmap semantics (select/filter/project/head)
  on row-backed, columnar and pending-selection batches;
* ``Predicate.filter_vector`` ≡ ``compile`` ≡ ``matches`` on ndarray,
  stdlib ``array`` and plain-list columns, with numpy on and off,
  including the cases the vector path must *decline* (huge ints) and NaN
  bounds, plus a hypothesis property over random predicate trees;
* whole-pipeline equivalence between columnar designs and a ``rows(...)``
  copy of the same records, and the ``RodentStore(batch_rows=...)`` knob.
"""

import math
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import vector
from repro.compression import get_codec
from repro.compression.base import CodecError
from repro.engine.database import RodentStore
from repro.errors import SerializationError, StorageError
from repro.query.executor import Aggregate, QuerySpec, execute
from repro.query import Q
from repro.query.expressions import And, Not, Or, Predicate, Range, Rect
from repro.query.plan import JoinClause
from repro.storage.serializer import RecordSerializer, VectorSerializer
from repro.types import Schema
from repro.types.types import FLOAT, INT, STRING


# ---------------------------------------------------------------------------
# Codec decode paths: decode == decode_all == decode_buffer (as values)


INT_CASES = {
    "empty": [],
    "single": [7],
    "single_negative": [-9223372036854775000],
    "run": [3] * 257,
    "mixed_sign": [(-1) ** i * (i * i) for i in range(100)],
    "wide": [0, 1, -1, 2**40, -(2**40), 2**62, -(2**62)],
}

FLOAT_CASES = {
    "empty": [],
    "single": [7.5],
    "run": [-0.25] * 64,
    "mixed_sign": [((-1) ** i) * i * 0.37 for i in range(100)],
    "special": [0.0, -0.0, 1e300, -1e-300, math.pi, float("inf")],
}

#: codec name -> (dtype, cases valid for that codec)
CODEC_CASES = {
    "none": (INT, INT_CASES),
    "varint": (INT, INT_CASES),
    "delta": (INT, INT_CASES),
    "rle": (INT, INT_CASES),
    "dict": (INT, INT_CASES),
    "lz": (INT, INT_CASES),
    "for": (INT, INT_CASES),
    # bitpack stores non-negative ints only (frame-of-reference adds the
    # sign handling on top of it).
    "bitpack": (
        INT,
        {
            "empty": [],
            "single": [7],
            "run": [3] * 257,
            "zeros": [0] * 100,
            "wide": [0, 1, 2**40, 2**62],
        },
    ),
    "xor": (FLOAT, FLOAT_CASES),
}


def _codec_case_params():
    for codec_name, (dtype, cases) in CODEC_CASES.items():
        for case_name, values in cases.items():
            yield pytest.param(
                codec_name, dtype, values, id=f"{codec_name}-{case_name}"
            )


@pytest.mark.parametrize("codec_name,dtype,values", _codec_case_params())
def test_codec_decode_paths_agree(codec_name, dtype, values):
    codec = get_codec(codec_name)
    data = codec.encode(values, dtype)
    reference = codec.decode(data, dtype)
    assert reference == values
    assert codec.decode_all(data, dtype) == values
    assert vector.to_list(codec.decode_buffer(data, dtype)) == values


@pytest.mark.parametrize("codec_name,dtype,values", _codec_case_params())
def test_codec_decode_buffer_numpy_absent_parity(codec_name, dtype, values):
    """decode_buffer is behavior-identical with numpy switched off."""
    codec = get_codec(codec_name)
    data = codec.encode(values, dtype)
    with_numpy = vector.to_list(codec.decode_buffer(data, dtype))
    prev = vector.set_numpy_enabled(False)
    try:
        fallback = codec.decode_buffer(data, dtype)
        np = vector.numpy_module()
        if np is not None:
            assert not isinstance(fallback, np.ndarray)
        assert vector.to_list(fallback) == with_numpy == values
    finally:
        vector.set_numpy_enabled(prev)


def test_bitpack_rejects_negative_values():
    with pytest.raises(CodecError):
        get_codec("bitpack").encode([3, -1, 5], INT)


def test_xor_rejects_integer_dtype():
    with pytest.raises(CodecError):
        get_codec("xor").encode([1.0, 2.0], INT)


def test_decoded_values_are_native_python():
    """numpy scalars must never leak out of the typed-buffer paths."""
    codec = get_codec("delta")
    data = codec.encode([5, 6, 7], INT)
    for value in vector.to_list(codec.decode_buffer(data, INT)):
        assert type(value) is int


# ---------------------------------------------------------------------------
# Nulls: vector chunks refuse them; record null bitmaps carry them.


def test_vector_serializer_has_no_null_path():
    with pytest.raises(SerializationError):
        VectorSerializer(INT).encode([1, None, 3])


def test_record_serializer_all_null_column_roundtrip():
    schema = Schema.of("a:int", "b:float", "c:string")
    ser = RecordSerializer(schema)
    records = [(None, None, None) for _ in range(17)]
    blobs = [ser.encode(r) for r in records]
    assert [ser.decode(b) for b in blobs] == records
    assert ser.decode_many(blobs) == records


def test_record_serializer_mixed_null_column_roundtrip():
    schema = Schema.of("a:int", "b:float")
    ser = RecordSerializer(schema)
    records = [
        (i if i % 3 else None, None if i % 2 else i * 0.5) for i in range(40)
    ]
    blobs = [ser.encode(r) for r in records]
    assert ser.decode_many(blobs) == records


# ---------------------------------------------------------------------------
# ColumnBatch selection semantics


from repro.layout.renderer import ColumnBatch  # noqa: E402


def _bitmap(bools):
    """A boolean ndarray selection bitmap (the only mask shape the engine
    produces: ``Predicate.filter_vector`` needs numpy)."""
    np = pytest.importorskip("numpy")
    return np.array(bools, dtype=bool)


def _typed_batch():
    cols = [
        vector.from_values(list(range(10)), "q"),
        vector.from_values([i * 0.5 for i in range(10)], "d"),
    ]
    return ColumnBatch.from_columns(("a", "b"), cols)


def test_column_batch_select_then_resolve():
    batch = _typed_batch()
    mask = _bitmap([i % 2 == 0 for i in range(10)])
    selected = batch.select(mask)
    assert selected.n_rows == 5
    assert selected.rows() == [(i, i * 0.5) for i in range(0, 10, 2)]
    # the parent batch is untouched
    assert batch.n_rows == 10 and len(batch.rows()) == 10


def _batch_shapes(rows):
    """``rows`` (``(a, b)`` pairs) as a row-backed batch, a columnar batch,
    and — when numpy is importable — a columnar batch whose pending
    selection bitmap hides two extra leading rows."""
    shapes = [
        ColumnBatch.from_rows(("a", "b"), list(rows)),
        ColumnBatch.from_columns(
            ("a", "b"),
            [
                vector.from_values([r[0] for r in rows], "q"),
                vector.from_values([r[1] for r in rows], "d"),
            ],
        ),
    ]
    if vector.numpy_module() is not None:
        padded = [(-1, -0.5), (-2, -1.0)] + list(rows)
        wide = ColumnBatch.from_columns(
            ("a", "b"),
            [
                vector.from_values([r[0] for r in padded], "q"),
                vector.from_values([r[1] for r in padded], "d"),
            ],
        )
        shapes.append(wide.select(_bitmap([i >= 2 for i in range(len(padded))])))
    return shapes


class _RowOnly(Predicate):
    """A predicate with only the row evaluator (``filter_vector``
    declines, as for any user-defined predicate)."""

    calls = 0

    def __init__(self, inner):
        self.inner = inner

    def matches(self, record, positions):
        type(self).calls += 1
        return self.inner.matches(record, positions)

    def fields_used(self):
        return self.inner.fields_used()


def test_column_batch_selection_rides_through_projection():
    """``ColumnBatch.filter``/``project`` — the one filter and projection
    the scan pipeline and the plan operators share — on every batch
    shape: row-backed, columnar, and columnar with a pending selection."""
    rows = [(i, i * 0.5) for i in range(10)]
    keep = Range("a", 7, 9)
    closure = keep.compile({"a": 0, "b": 1})
    for batch in _batch_shapes(rows):
        label = repr(batch)
        pending = "+selection" in label
        swapped = batch.project([1, 0], ("b", "a"))
        assert swapped.fields == ("b", "a"), label
        assert swapped.is_columnar == batch.is_columnar, label
        assert ("+selection" in repr(swapped)) == pending, label
        assert swapped.rows() == [(b, a) for a, b in rows], label
        assert batch.project([1], ("b",)).rows() == [(b,) for _, b in rows]

        kept = batch.filter(keep, closure)
        narrowed = kept.project([1], ("b",))
        # a columnar batch keeps its bitmap through filter and projection
        # whenever filter_vector accepts
        if batch.is_columnar and vector.numpy_enabled():
            assert "+selection" in repr(narrowed), label
        assert narrowed.rows() == [(3.5,), (4.0,), (4.5,)], label
        assert kept.rows() == rows[7:], label

        # a predicate without a columnar evaluator runs the closure
        declining = _RowOnly(keep)
        kept = batch.filter(declining, declining.compile({"a": 0}))
        assert kept.rows() == rows[7:], label
    assert _RowOnly.calls  # the closure path really ran


def test_column_batch_head_after_selection():
    batch = _typed_batch().select(_bitmap([i % 3 == 0 for i in range(10)]))
    assert batch.head(2).rows() == [(0, 0.0), (3, 1.5)]
    assert batch.head(99) is batch


def test_column_batch_empty_selection():
    batch = _typed_batch().select(_bitmap([False] * 10))
    assert batch.n_rows == 0
    assert batch.rows() == []
    assert list(batch.iter_rows()) == []


def test_column_batch_iter_rows_matches_rows():
    batch = _typed_batch().select(_bitmap([i in (1, 4, 9) for i in range(10)]))
    assert list(batch.iter_rows()) == batch.rows()
    assert list(batch.column_map()) == ["a", "b"]
    assert vector.to_list(batch.column_map()["a"]) == [1, 4, 9]


def test_column_batch_from_rows_is_row_backed():
    batch = ColumnBatch.from_rows(("a",), [(1,), (2,)])
    assert not batch.is_columnar
    assert batch.rows() == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Predicate.filter_vector ≡ compile ≡ matches, and ColumnBatch.filter


PREDICATES = [
    Range("a", 2, 7),
    Range("a", hi=4),
    Range("a", lo=5),
    Range("a", 2.5, 6.5),  # float bounds over an int column
    Rect({"a": (1, 8), "b": (0.5, 3.0)}),
    And(Range("a", 0, 9), Not(Range("a", 3, 5))),
    Or(Range("a", -100, 1), Range("b", 4.0, 100.0)),
    Not(Or(Range("a", 0, 2), Range("a", 8, 100))),
]


def _column_shapes(a, b):
    """The same two columns as every vector shape a batch can carry:
    numpy ndarray (when importable), stdlib ``array``, plain list."""
    shapes = {
        "array": {"a": array("q", a), "b": array("d", b)},
        "list": {"a": list(a), "b": list(b)},
    }
    np = vector.numpy_module()
    if np is not None:
        shapes["ndarray"] = {
            "a": np.array(a, dtype=np.int64),
            "b": np.array(b, dtype=np.float64),
        }
    return shapes


def _check_evaluators(predicate, a, b, vectorizes=False):
    """filter_vector ≡ compile ≡ matches on every column shape, and
    ColumnBatch.filter returns the matching rows on every batch shape —
    with numpy on (with ``vectorizes``, typed columns must not decline)
    and switched off (filter_vector must decline)."""
    rows = list(zip(a, b))
    positions = {"a": 0, "b": 1}
    expected = [bool(predicate.matches(r, positions)) for r in rows]
    closure = predicate.compile(positions)
    assert [bool(closure(r)) for r in rows] == expected, predicate
    want = [r for r, k in zip(rows, expected) if k]  # compared by repr: NaN
    for numpy_on in (True, False):
        prev = vector.set_numpy_enabled(numpy_on)
        try:
            for shape, columns in _column_shapes(a, b).items():
                bitmap = predicate.filter_vector(columns, len(rows))
                if vectorizes and vector.numpy_enabled() and shape != "list":
                    assert bitmap is not None, (predicate, shape)
                if bitmap is not None:
                    assert numpy_on and shape != "list", (predicate, shape)
                    got = [bool(v) for v in vector.to_list(bitmap)]
                    assert got == expected, (predicate, shape, numpy_on)
                batch = ColumnBatch.from_columns(
                    ("a", "b"), [columns["a"], columns["b"]]
                )
                got = batch.filter(predicate, closure).rows()
                assert repr(got) == repr(want), (predicate, shape, numpy_on)
            row_batch = ColumnBatch.from_rows(("a", "b"), rows)
            got = row_batch.filter(predicate, closure).rows()
            assert repr(got) == repr(want), predicate
        finally:
            vector.set_numpy_enabled(prev)


@pytest.mark.parametrize(
    "predicate", PREDICATES, ids=[repr(p) for p in PREDICATES]
)
def test_filter_vector_matches_row_paths(predicate):
    a = list(range(-3, 12))
    b = [i * 0.5 for i in range(len(a))]
    # plain comparisons over typed columns always vectorize
    _check_evaluators(predicate, a, b, vectorizes=True)


def test_filter_vector_agrees_on_plain_lists():
    """Row-backed batches hand plain lists to the predicate layer:
    filter_vector declines and the closure answers."""
    columns = {"a": list(range(-3, 12)), "b": [i * 0.5 for i in range(15)]}
    predicate = And(Range("a", 0, 9), Range("b", 1.0, 5.0))
    assert predicate.filter_vector(columns, 15) is None
    _check_evaluators(predicate, columns["a"], columns["b"])


def test_filter_vector_huge_bounds_stay_correct():
    """Bounds beyond int64, and int bounds beyond float64's exact range
    on a float column, must either decline or stay exact."""
    a = [0, 2**62, -(2**62)]
    b = [float(2**62), -float(2**62), 0.5]
    for predicate in (
        Range("a", -(2**70), 2**70),
        Range("a", 2**62, 2**62),
        Range("b", hi=2**62 - 1),
        Range("b", -(2**62) + 1, 2**62 + 1),
        Range("a", 1e30, math.inf),
    ):
        _check_evaluators(predicate, a, b)


def test_range_nan_bound_selects_nothing_on_columns():
    """A NaN bound compares false against every value, so a columnar scan
    answers like ``rows(...)`` and ``scan_reference``: no rows."""
    store = RodentStore(page_size=2048, pool_capacity=32)
    store.create_table("C", Schema.of("a:int", "b:float"), layout="columns(C)")
    store.create_table("R", Schema.of("a:int", "b:float"), layout="R")
    records = [(i, i * 0.5) for i in range(100)]
    store.load("C", records)
    store.load("R", records)
    for predicate in (
        Range("a", math.nan, 5),
        Range("a", 0, math.nan),
        Range("a", math.nan, math.nan),
        Range("b", math.nan, 5),
    ):
        for name in ("C", "R"):
            got = Q(store, name).where(predicate).run()
            reference = list(store.table(name).scan_reference(predicate=predicate))
            assert got == reference == [], (name, predicate)


_BOUNDS = st.one_of(
    st.integers(-40, 40),
    st.floats(-40, 40, allow_nan=False),
    st.sampled_from(
        [
            math.nan,
            math.inf,
            -math.inf,
            2.5,
            -7.5,
            2**62,
            -(2**62),
            2**62 + 1,
            -(2**62) - 1,
            float(2**62),
        ]
    ),
)


@st.composite
def _ranges(draw, field):
    lo, hi = draw(_BOUNDS), draw(_BOUNDS)
    if lo > hi:
        lo, hi = hi, lo
    return Range(field, lo, hi)


_LEAVES = st.one_of(
    _ranges("a"),
    _ranges("b"),
    st.builds(
        lambda ra, rb: Rect({"a": (ra.lo, ra.hi), "b": (rb.lo, rb.hi)}),
        _ranges("a"),
        _ranges("b"),
    ),
)

_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda p: And(*p)),
        st.lists(children, min_size=2, max_size=3).map(lambda p: Or(*p)),
        children.map(Not),
    ),
    max_leaves=6,
)

_INTS = st.one_of(
    st.integers(-50, 50), st.sampled_from([2**62, -(2**62), 2**62 - 1])
)
_FLOATS = st.one_of(
    st.floats(-50, 50, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, float(2**62), 2.5]),
)


@given(
    predicate=_TREES,
    pairs=st.lists(st.tuples(_INTS, _FLOATS), min_size=1, max_size=30),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_predicate_evaluators_agree_property(predicate, pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    _check_evaluators(predicate, a, b)


def test_vectorized_switch_is_gone():
    """One execution path: the runtime rowwise/vectorized switch is gone."""
    with pytest.raises(TypeError):
        RodentStore(vectorized=True)


# ---------------------------------------------------------------------------
# Whole-pipeline equivalence: columnar vs row layouts, batch_rows knob


SCHEMA = Schema.of("t:int", "x:int", "y:float", "g:int")
DIM_SCHEMA = Schema.of("g:int", "label:string")


def _records(n=500):
    return [
        (i, (i * 7) % 53 - 26, ((i * 13) % 89) * 0.25, i % 5)
        for i in range(n)
    ]


def _build_store(**kwargs):
    store = RodentStore(page_size=2048, pool_capacity=128, **kwargs)
    store.create_table("T", SCHEMA, layout="columns(T)")
    store.create_table("G", SCHEMA, layout="columns[[t, g], [x, y]](G)")
    store.create_table("R", SCHEMA, layout="R")
    store.create_table("D", DIM_SCHEMA, layout="D")
    store.load("T", _records())
    store.load("G", _records())
    store.load("R", _records())
    store.load("D", [(i, f"group-{i}") for i in range(5)])
    return store


QUERIES = [
    QuerySpec(table="T"),
    QuerySpec(table="T", fieldlist=("x", "t"), predicate=Range("x", 0, 20)),
    QuerySpec(table="T", predicate=Range("y", 2.5, 11.0), limit=17),
    QuerySpec(
        table="T",
        group_by=("g",),
        aggregates=(
            Aggregate("count"),
            Aggregate("sum", "x"),
            Aggregate("sum", "y"),
            Aggregate("min", "x"),
            Aggregate("max", "y"),
            Aggregate("avg", "x"),
        ),
    ),
    QuerySpec(
        table="T",
        group_by=("g", "x"),
        aggregates=(Aggregate("count"), Aggregate("sum", "t")),
        predicate=Range("t", 10, 400),
    ),
    QuerySpec(
        table="T",
        aggregates=(Aggregate("sum", "x"), Aggregate("avg", "y")),
    ),
    QuerySpec(
        table="T",
        fieldlist=("t", "x", "label"),
        joins=(JoinClause("D", (("g", "g"),)),),
        predicate=Range("t", 0, 99),
    ),
]


@pytest.fixture(scope="module")
def store():
    return _build_store()


@pytest.mark.parametrize("base", ["T", "G"])
def test_columnar_and_row_operators_agree(store, base):
    """Cross-layout differential: every spec on a columnar design (typed
    vectors through the columnar operator paths) answers exactly like the
    same records stored ``rows(R)`` (row-backed batches through the
    row-at-a-time operator code)."""
    assert all(b.is_columnar for b in store.table(base).scan_column_batches())
    assert not any(b.is_columnar for b in store.table("R").scan_column_batches())
    for spec in QUERIES:
        columnar = execute(
            store.table(base), QuerySpec(**{**spec.__dict__, "table": base})
        )
        rowwise = execute(
            store.table("R"), QuerySpec(**{**spec.__dict__, "table": "R"})
        )
        if spec.limit is None and not spec.order:
            assert columnar == rowwise, spec
        else:
            assert sorted(map(repr, columnar)) == sorted(
                map(repr, rowwise)
            ), spec


def test_columnar_and_row_scans_match_reference(store):
    expected = list(store.table("R").scan_reference())
    for name in ("T", "R"):
        table = store.table(name)
        assert list(table.scan_reference()) == expected, name
        assert list(table.scan()) == expected, name
    grouped = store.table("G")
    assert list(grouped.scan()) == list(grouped.scan_reference())


@pytest.mark.parametrize("batch_rows", [1, 7, 256, 100_000])
def test_batch_rows_knob_preserves_scans(batch_rows):
    store = _build_store(batch_rows=batch_rows)
    table = store.table("T")
    assert list(table.scan()) == list(table.scan_reference())
    spec = QUERIES[3]
    assert execute(table, spec) == execute(_build_store().table("T"), spec)


def test_batch_rows_must_be_positive():
    with pytest.raises(StorageError):
        RodentStore(batch_rows=0)


def test_pipeline_numpy_absent_parity():
    """The whole stack answers identically with numpy unavailable."""
    baseline_store = _build_store()
    baseline = [
        execute(baseline_store.table("T"), spec) for spec in QUERIES
    ]
    prev = vector.set_numpy_enabled(False)
    try:
        store = _build_store()
        table = store.table("T")
        assert list(table.scan()) == list(table.scan_reference())
        for spec, expected in zip(QUERIES, baseline):
            got = execute(table, spec)
            if spec.limit is None and not spec.order:
                assert got == expected, spec
            else:
                assert sorted(map(repr, got)) == sorted(map(repr, expected))
    finally:
        vector.set_numpy_enabled(prev)


class _StubOp:
    """A leaf operator replaying fixed batches (for operator-level tests)."""

    est_rows = 0.0

    def __init__(self, fields, batches):
        self.fields = tuple(fields)
        self._batches = list(batches)

    def batches(self):
        return iter(self._batches)


def _group_op(batches, keys, aggregates):
    from repro.query.operators import GroupByOp

    return GroupByOp(_StubOp(("g", "v"), batches), keys, aggregates)


def test_group_by_non_finite_floats_match_row_path():
    """NaN/inf in a measure column must not change aggregate answers."""
    values = [1.0, float("nan"), 2.5, float("inf"), -3.25, 4.0,
              float("nan"), 0.5]
    cols = [
        vector.from_values([i % 3 for i in range(len(values))], "q"),
        vector.from_values(values, "d"),
    ]
    aggs = (Aggregate("count"), Aggregate("sum", "v"), Aggregate("min", "v"))

    columnar = _group_op(
        [ColumnBatch.from_columns(("g", "v"), cols)], ("g",), aggs
    ).rows()
    rowwise = _group_op(
        [ColumnBatch.from_rows(
            ("g", "v"), list(zip(vector.to_list(cols[0]), values))
        )],
        ("g",),
        aggs,
    ).rows()
    assert len(columnar) == len(rowwise) == 3
    for a, b in zip(columnar, rowwise):
        assert repr(a) == repr(b)  # NaN-safe comparison


def test_group_by_vector_path_matches_rows_on_clean_floats():
    n = 200
    g = [i % 7 for i in range(n)]
    v = [((i * 31) % 97) * 0.125 - 3.0 for i in range(n)]
    cols = [vector.from_values(g, "q"), vector.from_values(v, "d")]
    aggs = (
        Aggregate("count"),
        Aggregate("sum", "v"),
        Aggregate("avg", "v"),
        Aggregate("min", "v"),
        Aggregate("max", "v"),
    )
    columnar = _group_op(
        [ColumnBatch.from_columns(("g", "v"), cols)], ("g",), aggs
    ).rows()
    rowwise = _group_op(
        [ColumnBatch.from_rows(("g", "v"), list(zip(g, v)))], ("g",), aggs
    ).rows()
    # bit-for-bit, including float rounding and first-seen group order
    assert repr(columnar) == repr(rowwise)
