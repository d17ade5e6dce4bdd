"""One region model: a flat table is a one-partition table.

A flat table stores its data as exactly one region (main layout +
overflow + pending memtable), the same :class:`~repro.engine.catalog.Region`
a partitioned table keeps per partition. The tests here pin that the two
kinds of table are indistinguishable where they should be:

* a design ``D`` and its twin ``partition[id; hash, 1](D)`` answer every
  scan identically and move the write-amplification ledger by the same
  amounts through inserts, flushes, deletes, updates, compactions and
  re-layouts (a hypothesis-driven differential);
* ``compact()`` with nothing to fold writes nothing, flat or partitioned;
* the catalog JSON format is unchanged: same keys, same version.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import RodentStore
from repro.engine.persistence import (
    FORMAT_VERSION,
    apply_entry_dict,
    entry_to_dict,
)
from repro.query.expressions import Range
from repro.types import Schema

SCHEMA = Schema.of("id:int", "val:int")

DESIGNS = [
    "rows({t})",
    "columns({t})",
    "orderby[id]({t})",
    "grid[id, val],[64, 64]({t})",
]


def twin_layouts(design: str) -> tuple[str, str]:
    """``design`` on table F and its one-partition twin on table P."""
    twin = design.format(t="P")
    return design.format(t="F"), f"partition[id; hash, 1]({twin})"


def wa_ledger(store: RodentStore, name: str) -> dict:
    return store.storage_stats()["tables"].get(name, {}).get(
        "write_amplification", {}
    )


# ---------------------------------------------------------------------------
# write-amplification ledger: partitioned tables are charged like flat ones
# ---------------------------------------------------------------------------


def test_partitioned_write_amplification_matches_flat_twin():
    store = RodentStore(page_size=8192)
    flat, twin = twin_layouts("rows({t})")
    store.create_table("F", SCHEMA, layout=flat)
    store.create_table("P", SCHEMA, layout=twin)
    steps = [
        lambda t: store.load(t, [(i, i) for i in range(2000)]),
        lambda t: store.table(t).insert([(i, i) for i in range(2000, 4000)]),
        lambda t: store.table(t).flush_inserts(),
        lambda t: store.table(t).delete(Range("id", 0, 10)),
        lambda t: store.table(t).update({"val": 0}, Range("id", 20, 30)),
        lambda t: store.table(t).insert([(9000, 1)]),
        lambda t: store.table(t).compact(),
    ]
    moved = []
    for step in steps:
        before = {name: wa_ledger(store, name) for name in ("F", "P")}
        for name in ("F", "P"):
            step(name)
        after = {name: wa_ledger(store, name) for name in ("F", "P")}
        assert after["F"] == after["P"]
        moved.append(after["F"] != before["F"])
    # Inserts only fill the pending memtable; every other step renders.
    assert moved == [True, False, True, True, True, False, True]
    ledger = wa_ledger(store, "P")
    assert ledger["bytes_ingested"] > 0
    assert ledger["bytes_written"] > ledger["bytes_ingested"]
    assert ledger["compactions"] == 1


# ---------------------------------------------------------------------------
# compaction: only regions with overflow or pending rows are rewritten
# ---------------------------------------------------------------------------


def test_compact_with_nothing_to_fold_writes_no_pages():
    for layout in ("rows(T)", "partition[id; hash, 1](rows(T))"):
        store = RodentStore(page_size=8192)
        store.create_table("T", SCHEMA, layout=layout)
        store.load("T", [(i, i) for i in range(2000)])
        before = store.storage_stats()
        store.table("T").compact()
        after = store.storage_stats()
        assert after["disk"]["page_writes"] == before["disk"]["page_writes"]
        assert (
            after["disk"]["allocated_pages"]
            == before["disk"]["allocated_pages"]
        )
        assert wa_ledger(store, "T") == before["tables"]["T"][
            "write_amplification"
        ]
        assert sorted(store.table("T").scan()) == [
            (i, i) for i in range(2000)
        ]


# ---------------------------------------------------------------------------
# catalog format: the one region list serializes to the historical keys
# ---------------------------------------------------------------------------

ENTRY_KEYS = [
    "name", "schema", "expr", "layout", "overflow", "stats", "pending",
    "monitor", "partitions", "partitions_loaded", "next_partition_id",
    "partition_scans", "partitions_pruned", "runs", "level_tombstones",
    "next_run_id", "next_run_seq", "wa_bytes_ingested", "wa_bytes_written",
    "wa_pages_compacted", "wa_compactions",
]
REGION_KEYS = [
    "pid", "key", "lower", "upper", "expr", "layout", "overflow", "pending",
]


def _with_overflow_and_pending(store: RodentStore, name: str, layout: str):
    store.create_table(name, SCHEMA, layout=layout)
    store.load(name, [(i, i) for i in range(50)])
    table = store.table(name)
    table.insert([(100, 1)])
    table.flush_inserts()
    table.insert([(101, 2)])


def test_entry_to_dict_format_is_unchanged():
    assert FORMAT_VERSION == 1
    store = RodentStore(page_size=1024)
    _with_overflow_and_pending(store, "F", "rows(F)")
    _with_overflow_and_pending(store, "P", "partition[id; range, 25](P)")

    flat = entry_to_dict(store.catalog.entry("F"))
    assert list(flat) == ENTRY_KEYS
    assert flat["layout"] is not None
    assert len(flat["overflow"]) == 1
    assert flat["pending"] == [[101, 2]]
    assert flat["partitions"] == []
    assert flat["partitions_loaded"] is False

    part = entry_to_dict(store.catalog.entry("P"))
    assert list(part) == ENTRY_KEYS
    assert part["layout"] is None
    assert part["overflow"] == [] and part["pending"] == []
    assert part["partitions_loaded"] is True
    assert [list(r) for r in part["partitions"]] == [REGION_KEYS] * 2
    assert sum(len(r["overflow"]) for r in part["partitions"]) == 1
    assert [r["pending"] for r in part["partitions"] if r["pending"]] == [
        [[101, 2]]
    ]

    # Re-applying an image restores the same regions (and so the same
    # image), for both kinds of table.
    for name, image in (("F", flat), ("P", part)):
        apply_entry_dict(store, image)
        assert entry_to_dict(store.catalog.entry(name)) == image
        assert sorted(store.table(name).scan()) == sorted(
            [(i, i) for i in range(50)] + [(100, 1), (101, 2)]
        )


# ---------------------------------------------------------------------------
# twin differential: D and partition[id; hash, 1](D) behave identically
# ---------------------------------------------------------------------------

ids = st.integers(0, 300)
rows_strategy = st.lists(
    st.tuples(ids, st.integers(0, 300)), min_size=1, max_size=40
)
op_strategy = st.one_of(
    st.tuples(st.just("insert"), rows_strategy),
    st.tuples(st.just("flush")),
    st.tuples(st.just("delete"), ids, st.integers(0, 60)),
    st.tuples(st.just("update"), ids, st.integers(0, 60), st.integers(0, 300)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("relayout"), st.sampled_from(DESIGNS)),
)


def apply_twin_op(store: RodentStore, name: str, op: tuple) -> None:
    table = store.table(name)
    kind = op[0]
    if kind == "insert":
        table.insert(op[1])
    elif kind == "flush":
        table.flush_inserts()
    elif kind == "delete":
        table.delete(Range("id", op[1], op[1] + op[2]))
    elif kind == "update":
        table.update({"val": op[3]}, Range("id", op[1], op[1] + op[2]))
    elif kind == "compact":
        table.compact()
    else:
        flat, twin = twin_layouts(op[1])
        store.relayout(name, flat if name == "F" else twin)


def apply_model_op(model: list[tuple], op: tuple) -> list[tuple]:
    kind = op[0]
    if kind == "insert":
        return model + [tuple(r) for r in op[1]]
    if kind == "delete":
        lo, hi = op[1], op[1] + op[2]
        return [r for r in model if not lo <= r[0] <= hi]
    if kind == "update":
        lo, hi = op[1], op[1] + op[2]
        return [(r[0], op[3]) if lo <= r[0] <= hi else r for r in model]
    return model  # flush / compact / relayout keep the logical rows


def assert_twins_agree(store: RodentStore, model: list[tuple]) -> None:
    window = Range("id", 50, 150)
    for name in ("F", "P"):
        table = store.table(name)
        scanned = list(table.scan())
        assert scanned == list(table.scan_reference())
        assert sorted(scanned) == sorted(model)
        assert sorted(store.query(name).run()) == sorted(model)
        pruned = list(table.scan(predicate=window))
        assert pruned == list(table.scan_reference(predicate=window))
        assert sorted(pruned) == sorted(
            r for r in model if 50 <= r[0] <= 150
        )
    flat, twin = store.table("F"), store.table("P")
    assert flat.row_count == twin.row_count == len(model)
    assert flat.overflow_row_count == twin.overflow_row_count
    assert wa_ledger(store, "F") == wa_ledger(store, "P")


@given(
    design=st.sampled_from(DESIGNS),
    initial=rows_strategy,
    ops=st.lists(op_strategy, min_size=1, max_size=8),
)
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_twin_differential(design, initial, ops):
    store = RodentStore(page_size=1024, pool_capacity=64)
    flat, twin = twin_layouts(design)
    store.create_table("F", SCHEMA, layout=flat)
    store.create_table("P", SCHEMA, layout=twin)
    for name in ("F", "P"):
        store.load(name, initial)
    model = [tuple(r) for r in initial]
    assert_twins_agree(store, model)
    for op in ops:
        for name in ("F", "P"):
            apply_twin_op(store, name, op)
        model = apply_model_op(model, op)
        assert_twins_agree(store, model)
    store.close()


def test_range_scan_of_empty_sorted_table():
    """A flat sorted table scans its main layout even when it holds no
    rows; the sorted-rows range path must not binary-search an empty
    layout (found by the twin differential: the partition twin skipped
    its empty region and answered, the flat table raised)."""
    store = RodentStore(page_size=1024)
    store.create_table("T", SCHEMA, layout="orderby[id](T)")
    store.load("T", [(0, 0)])
    table = store.table("T")
    table.delete(Range("id", 0, 0))
    window = Range("id", 50, 150)
    assert list(table.scan(predicate=window)) == []
    assert list(table.scan_reference(predicate=window)) == []
    store.load("T", [])
    assert list(table.scan(predicate=window)) == []
