"""Which RodentStore entry points the traced run wraps, and how the spans
and ``storage_stats()`` deltas become the per-layer metrics.

Every wrapped call happens at most once per page, chunk, batch, commit or
operator step. Row-at-a-time paths (``Predicate.compile`` closures,
``LayoutRenderer.iter_rows``) are left unwrapped: their time shows up as
the self time of the enclosing span instead.
"""

from __future__ import annotations

from typing import Any, Mapping

from perfbench.tracer import Tracer

#: (metric name, unit) of every per-layer metric, in report order. The
#: traced run prints all of them on every workload; a layer the workload
#: never enters reads 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("disk.pages_read", "count"),
    ("disk.pages_read_per_query", "pages/query"),
    ("disk.read_s", "s"),
    ("disk.pages_written", "count"),
    ("disk.write_s", "s"),
    ("disk.fsyncs", "count"),
    ("disk.fsync_s", "s"),
    ("buffer.fetches", "count"),
    ("buffer.hit_rate", "ratio"),
    ("buffer.evictions", "count"),
    ("buffer.fetch_self_s", "s"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.append_s", "s"),
    ("wal.syncs", "count"),
    ("wal.sync_s", "s"),
    ("txn.commits", "count"),
    ("txn.aborts", "count"),
    ("txn.commit_self_s", "s"),
    ("renderer.render_s", "s"),
    ("renderer.pages_rendered", "count"),
    ("renderer.decode_self_s", "s"),
    ("renderer.rows_decoded", "count"),
    ("renderer.materialize_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.encode_s", "s"),
    ("table.scan_self_s", "s"),
    ("table.insert_self_s", "s"),
    ("table.rows_decoded_per_row_returned", "ratio"),
    ("levels.seals", "count"),
    ("levels.seal_s", "s"),
    ("levels.merges", "count"),
    ("levels.merge_s", "s"),
    ("levels.pages_rewritten", "count"),
    ("levels.runs_at_end", "count"),
    ("planner.compile_s", "s"),
    ("op.scan_self_s", "s"),
    ("op.filter_self_s", "s"),
    ("op.project_self_s", "s"),
    ("op.join_self_s", "s"),
    ("op.groupby_self_s", "s"),
    ("op.sort_limit_self_s", "s"),
    ("predicate.eval_s", "s"),
    ("predicate.selectivity", "ratio"),
    ("algebra.plan_s", "s"),
    ("integrity.page_verifications", "count"),
    ("setup.render_s", "s"),
    ("setup.pages_rendered", "count"),
    ("setup.codec_encode_s", "s"),
    ("setup.algebra_plan_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)

_OPERATOR_GROUPS = {
    "RowsOp": "op.scan",
    "TableScanOp": "op.scan",
    "ParallelTableScanOp": "op.scan",
    "FilterOp": "op.filter",
    "ProjectOp": "op.project",
    "HashJoinOp": "op.join",
    "GroupByOp": "op.groupby",
    "SortOp": "op.sort_limit",
    "LimitOp": "op.sort_limit",
}

_RENDER_ITERATORS = (
    "iter_batches",
    "iter_row_batches",
    "iter_column_batches",
    "iter_pruned_column_batches",
    "iter_folded_batches",
    "iter_array_batches",
)


def _subclasses(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _selected(mask: Any) -> int:
    if hasattr(mask, "dtype"):  # numpy boolean bitmap
        return int(mask.sum())
    return sum(map(bool, mask))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.compression  # noqa: F401  (registers every codec)
    from repro.algebra.interpreter import AlgebraInterpreter
    from repro.compression.base import Codec
    from repro.engine.database import RodentStore
    from repro.engine.table import Table
    from repro.layout.renderer import ColumnBatch, LayoutRenderer
    from repro.query import operators, planner
    from repro.query.expressions import Predicate
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager
    from repro.storage.transactions import Transaction
    from repro.storage.wal import WriteAheadLog

    counters = tracer.counters
    counters.update(scan_rows_decoded=0, pred_rows=0, pred_selected=0)

    tracer.wrap_call(DiskManager, "read_page", "disk.read")
    tracer.wrap_call(DiskManager, "write_page", "disk.write")
    tracer.wrap_call(DiskManager, "fsync", "disk.fsync")
    tracer.wrap_call(BufferPool, "fetch", "buffer.fetch")
    tracer.wrap_call(WriteAheadLog, "append", "wal.append")
    tracer.wrap_call(WriteAheadLog, "sync", "wal.sync")
    tracer.wrap_call(Transaction, "commit", "txn.commit")

    for cls in _subclasses(Codec):
        if "encode" in cls.__dict__:
            tracer.wrap_call(cls, "encode", "codec.encode")
        for attr in ("decode_all", "decode_buffer"):
            if attr in cls.__dict__:
                tracer.wrap_call(cls, attr, "codec.decode")

    def pages(layout, _args):
        return layout.total_pages() if layout is not None else 0

    tracer.wrap_call(LayoutRenderer, "render", "renderer.render", pages)
    tracer.wrap_call(LayoutRenderer, "render_region", "renderer.render", pages)

    def decoded(n: int) -> int:
        # Rows a table scan made the renderer decode; only the outermost
        # renderer span counts (iter_batches delegates to iter_row_batches).
        if tracer.depth("renderer.decode") == 1 and tracer.inside("table.scan"):
            counters["scan_rows_decoded"] += n
        return n

    for attr in _RENDER_ITERATORS:
        tracer.wrap_iter(
            LayoutRenderer, attr, "renderer.decode", lambda b: decoded(len(b))
        )
    tracer.wrap_call(
        LayoutRenderer,
        "read_cell",
        "renderer.decode",
        lambda records, _args: decoded(len(records)),
    )
    tracer.wrap_call(ColumnBatch, "rows", "renderer.materialize")
    tracer.wrap_call(ColumnBatch, "iter_rows", "renderer.materialize")

    tracer.wrap_call(planner, "compile_query", "planner.compile")
    for cls in _subclasses(operators.Operator):
        group = _OPERATOR_GROUPS.get(cls.__name__)
        if group is not None and "batches" in cls.__dict__:
            tracer.wrap_iter(cls, "batches", group)

    def evaluated(mask, args) -> int:
        if mask is None:  # filter_vector declined; filter_batch follows
            return 0
        if tracer.depth("predicate.eval") == 1:
            counters["pred_rows"] += args[2]
            counters["pred_selected"] += _selected(mask)
        return args[2]

    for cls in _subclasses(Predicate):
        for attr in ("filter_vector", "filter_batch"):
            if attr in cls.__dict__:
                tracer.wrap_call(cls, attr, "predicate.eval", evaluated)

    tracer.wrap_iter(Table, "scan_column_batches", "table.scan")
    tracer.wrap_iter(Table, "scan_batches", "table.scan")
    tracer.wrap_call(Table, "insert", "table.insert")
    tracer.wrap_call(
        RodentStore,
        "seal_level_run",
        "levels.seal",
        lambda layout, _args: int(layout is not None),
    )
    tracer.wrap_call(
        RodentStore,
        "compact_levels",
        "levels.merge",
        lambda report, _args: report["merges"],
    )
    tracer.wrap_call(AlgebraInterpreter, "compile", "algebra.plan")


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced set-up (read before ``reset``)."""
    g = tracer.groups

    def total(group: str) -> float:
        return g[group].total_s if group in g else 0.0

    return {
        "setup.render_s": total("renderer.render"),
        "setup.pages_rendered": float(
            g["renderer.render"].items if "renderer.render" in g else 0
        ),
        "setup.codec_encode_s": total("codec.encode"),
        "setup.algebra_plan_s": total("algebra.plan"),
    }


def block_metrics(
    tracer: Tracer,
    delta: Mapping[str, float],
    blocks: int,
    queries: int,
    runs_at_end: int,
) -> dict[str, float]:
    """Per-layer figures per traced block.

    ``delta`` is the summed ``storage_stats()`` delta over the traced
    blocks (flattened keys), ``queries`` the read queries they ran.
    """
    g = tracer.groups
    c = tracer.counters

    def total(group: str) -> float:
        return g[group].total_s / blocks if group in g else 0.0

    def own(group: str) -> float:
        return g[group].self_s / blocks if group in g else 0.0

    def items(group: str) -> float:
        return g[group].items / blocks if group in g else 0.0

    def calls(group: str) -> float:
        return g[group].calls / blocks if group in g else 0.0

    def stat(key: str) -> float:
        return delta.get(key, 0) / blocks

    def table_stat(suffix: str) -> float:
        return sum(
            v for k, v in delta.items()
            if k.startswith("tables.") and k.endswith(suffix)
        ) / blocks

    fetches = delta.get("buffer_pool.fetches", 0)
    hits = delta.get("buffer_pool.hits", 0)
    scan_rows = g["table.scan"].items if "table.scan" in g else 0
    pred_rows = c["pred_rows"]
    return {
        "disk.pages_read": stat("disk.page_reads"),
        "disk.pages_read_per_query": (
            delta.get("disk.page_reads", 0) / queries if queries else 0.0
        ),
        "disk.read_s": total("disk.read"),
        "disk.pages_written": stat("disk.page_writes"),
        "disk.write_s": total("disk.write"),
        "disk.fsyncs": calls("disk.fsync"),
        "disk.fsync_s": total("disk.fsync"),
        "buffer.fetches": stat("buffer_pool.fetches"),
        "buffer.hit_rate": hits / fetches if fetches else 1.0,
        "buffer.evictions": stat("buffer_pool.evictions"),
        "buffer.fetch_self_s": own("buffer.fetch"),
        "wal.appends": stat("wal.appends"),
        "wal.bytes": stat("wal.wal_bytes"),
        "wal.append_s": total("wal.append"),
        "wal.syncs": stat("wal.fsyncs"),
        "wal.sync_s": total("wal.sync"),
        "txn.commits": stat("transactions.txns_committed"),
        "txn.aborts": stat("transactions.txns_aborted"),
        "txn.commit_self_s": own("txn.commit"),
        "renderer.render_s": total("renderer.render"),
        "renderer.pages_rendered": items("renderer.render"),
        "renderer.decode_self_s": own("renderer.decode"),
        "renderer.rows_decoded": items("renderer.decode"),
        "renderer.materialize_s": total("renderer.materialize"),
        "codec.decode_s": total("codec.decode"),
        "codec.encode_s": total("codec.encode"),
        "table.scan_self_s": own("table.scan"),
        "table.insert_self_s": own("table.insert"),
        "table.rows_decoded_per_row_returned": (
            c["scan_rows_decoded"] / scan_rows if scan_rows else 0.0
        ),
        "levels.seals": items("levels.seal"),
        "levels.seal_s": total("levels.seal"),
        "levels.merges": items("levels.merge"),
        "levels.merge_s": total("levels.merge"),
        "levels.pages_rewritten": table_stat(
            ".write_amplification.pages_rewritten_by_compaction"
        ),
        "levels.runs_at_end": float(runs_at_end),
        "planner.compile_s": total("planner.compile"),
        "op.scan_self_s": own("op.scan"),
        "op.filter_self_s": own("op.filter"),
        "op.project_self_s": own("op.project"),
        "op.join_self_s": own("op.join"),
        "op.groupby_self_s": own("op.groupby"),
        "op.sort_limit_self_s": own("op.sort_limit"),
        "predicate.eval_s": total("predicate.eval"),
        "predicate.selectivity": (
            c["pred_selected"] / pred_rows if pred_rows else 1.0
        ),
        "algebra.plan_s": total("algebra.plan"),
        "integrity.page_verifications": stat("integrity.page_verifications"),
    }
