"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload olap_warm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it alternates untraced and traced
blocks, prints the per-layer metrics and writes its spans to
``.perfbench_out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: (metric name, unit) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("recovery_s", "s"),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blocks(wl, rec, seconds: float) -> list[float]:
    """Closed loop: whole blocks until ``seconds`` of wall time passed.
    Returns each block's time inside measured operations."""
    deadline = perf_counter() + seconds
    block_s = []
    while True:
        wl.prepare_block()
        before = rec.op_time_s()
        wl.block(rec, wl.blocks_run)
        block_s.append(rec.op_time_s() - before)
        wl.blocks_run += 1
        if perf_counter() >= deadline:
            return block_s


def _end_to_end(
    wl, rec, setup_times: list[float], block_s: list[float]
) -> tuple[dict, dict]:
    from perfbench.harness import median, peak_rss_mb

    reads, commits = rec.reads_s, rec.commits_s
    read_tail, read_pct = wl.read_tail(rec)
    commit_tail, commit_pct = wl.commit_tail(rec)
    values = {
        "setup_s": median(setup_times),
        "queries_per_s": rec.queries / sum(reads),
        "read_p50_ms": median(reads) * 1e3,
        "read_tail_ms": read_tail * 1e3,
        "ingest_rows_per_s": rec.rows_ingested / sum(commits),
        "commit_p50_ms": wl.commit_p50(rec) * 1e3,
        "commit_tail_ms": commit_tail * 1e3,
    }
    values.update(wl.finish(rec))
    values["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "setup_samples_s": setup_times,
        "read_samples": len(reads),
        "read_tail_percentile": read_pct,
        "commit_samples": len(commits),
        "commit_tail_rule": commit_pct,
        "queries": rec.queries,
        "block_op_s": block_s,
        "calibration_ticks": len(wl.cal.ticks),
        "calibration_tick_s": {
            "min": min(wl.cal.ticks),
            "median": median(wl.cal.ticks),
            "max": max(wl.cal.ticks),
        },
        "unscaled": {
            "queries_per_s": rec.queries / sum(s for s, _ in rec.reads),
            "read_p50_ms": median([s for s, _ in rec.reads]) * 1e3,
        },
    }
    return values, detail


def _traced(wl, rec, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    from perfbench import layers
    from perfbench.harness import Recorder, stats_delta
    from perfbench.tracer import Tracer

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        wl.tracer = tracer
        tracer.query_id = "setup"
        tracer.active = True
        wl.setup(rec, 0)
        tracer.active = False
        values = layers.setup_metrics(tracer)
        tracer.reset()
        delta: dict[str, float] = {}
        plain_s = traced_s = 0.0
        queries = pairs = 0
        deadline = perf_counter() + seconds
        while True:
            # An untraced block and a traced one doing the same work, in
            # alternating order so drift within the run favours neither.
            for traced in (pairs % 2 == 1, pairs % 2 == 0):
                wl.prepare_block()
                before = wl.store.storage_stats()
                block = Recorder()
                tracer.active = traced
                try:
                    wl.block(block, pairs)
                finally:
                    tracer.active = False
                    tracer.query_id = None
                wl.blocks_run += 1
                rec.attempted += block.attempted
                rec.failed += block.failed
                rec.errors.extend(block.errors)
                if traced:
                    traced_s += block.op_time_s()
                    queries += block.queries
                    after = wl.store.storage_stats()
                    for key, value in stats_delta(before, after).items():
                        delta[key] = delta.get(key, 0) + value
                else:
                    plain_s += block.op_time_s()
            pairs += 1
            if perf_counter() >= deadline:
                break
        runs_at_end = sum(
            info.get("run_count", 0)
            for info in wl.store.storage_stats()["tables"].values()
        )
        values.update(
            layers.block_metrics(tracer, delta, pairs, queries, runs_at_end)
        )
        values["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{wl.seed}.jsonl"
        values["trace.spans"] = float(tracer.write_spans(str(spans_path)))
        detail = {
            "traced_blocks": pairs,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_dropped": tracer.dropped_spans,
            "queries_per_traced_block": queries / pairs,
            "group_self_s_per_block": {
                name: g.self_s / pairs for name, g in sorted(tracer.groups.items())
            },
        }
        return values, detail
    finally:
        tracer.uninstall()
        wl.tracer = None


def _remove_tree(path: Path) -> None:
    """Delete ``path`` and its parent when that is left empty."""
    shutil.rmtree(path, ignore_errors=True)
    parent = path.parent
    if parent.is_dir() and not any(parent.iterdir()):
        parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: RodentStore sources not found under src/repro; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import layers
    from perfbench.harness import Recorder, env_stamp
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    _remove_tree(workdir)
    workdir.mkdir(parents=True)
    wl = None
    rec = Recorder()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            # The traced run compares traced and untraced blocks of one
            # run with each other; it needs no host-speed ticks.
            wl.cal.every_s = float("inf")
        else:
            rec = Recorder(wl.cal)
        # Inputs and answer oracles are built; keep the collector from
        # re-walking them during the timed window.
        gc.collect()
        gc.freeze()
        if args.trace:
            values, detail = _traced(wl, rec, args.seconds, out_dir)
            catalogue = layers.PER_LAYER
        else:
            setup_times = [
                wl.setup(rec, i) for i in range(wl.setup_repeats)
            ]
            block_s = _blocks(wl, rec, args.seconds)
            values, detail = _end_to_end(wl, rec, setup_times, block_s)
            catalogue = END_TO_END
        stamp = env_stamp(ROOT, {
            **wl.stamp(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "timer": (
                "perf_counter minus CPU run-queue wait"
                if wl.clock.excludes_cpu_wait
                else "perf_counter"
            ),
        })
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if wl is not None:
            wl.close()
            wl.clock.close()
        _remove_tree(workdir)

    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in catalogue
    }
    report = {"stamp": stamp, "detail": detail, "errors": rec.errors}
    out_dir.mkdir(exist_ok=True)
    result_path = (
        out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    for name, unit in catalogue:
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
