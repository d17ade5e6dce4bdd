"""Tests for the benchmark's own helpers: the tail-percentile rule, span
self-time accounting, the ``storage_stats()`` delta, and the agreement of
``BENCHMARK.json`` with the metrics the code reports."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import tracer as tracer_mod
from perfbench.harness import stats_delta, tail_percentile
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


class TestTailPercentile:
    def test_highest_ladder_step_with_ten_beyond(self):
        samples = list(range(1, 101))  # 1..100
        # p99 and p95 leave 1 and 5 samples beyond; p90 leaves exactly 10.
        assert tail_percentile(samples) == (90, 90.0)

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 101))[::-1]
        assert tail_percentile(samples) == (90, 90.0)

    def test_small_sample_falls_to_median(self):
        assert tail_percentile(list(range(1, 21))) == (10, 50.0)

    def test_too_few_samples_reports_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)

    def test_ties_at_the_percentile_are_not_beyond_it(self):
        # 50 equal samples then 5 larger: no step has ten strictly beyond.
        assert tail_percentile([1.0] * 50 + [2.0] * 5) == (2.0, 100.0)

    def test_cap_holds_the_percentile_when_samples_grow(self):
        few = list(range(1, 101))
        many = list(range(1, 2001))
        assert tail_percentile(few, cap=90.0) == (90, 90.0)
        assert tail_percentile(many, cap=90.0) == (1800, 90.0)
        assert tail_percentile(many) == (1980, 99.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(tracer_mod, "_perf", fake)
    return fake


class TestSelfTime:
    def test_self_time_subtracts_children(self, clock):
        t = Tracer()
        a = t.enter("a")
        clock.now = 1.0
        b = t.enter("b")
        clock.now = 3.0
        assert t.exit(b) == pytest.approx(2.0)
        clock.now = 4.0
        c = t.enter("c")
        clock.now = 5.0
        t.exit(c)
        clock.now = 10.0
        assert t.exit(a) == pytest.approx(7.0)  # 10 - (2 + 1)
        assert t.groups["a"].total_s == pytest.approx(10.0)
        assert t.groups["a"].self_s == pytest.approx(7.0)
        assert t.groups["b"].self_s == pytest.approx(2.0)
        assert [s[3] for s in t.spans] == [-1, 0, 0]  # parents

    def test_nested_same_group_counts_total_once(self, clock):
        t = Tracer()
        outer = t.enter("g")
        clock.now = 1.0
        inner = t.enter("g")
        clock.now = 4.0
        t.exit(inner, items=5)
        clock.now = 6.0
        t.exit(outer, items=7)
        stats = t.groups["g"]
        assert stats.total_s == pytest.approx(6.0)
        assert stats.self_s == pytest.approx(6.0)  # 3 inner + 3 outer
        assert stats.items == 7
        assert stats.calls == 2

    def test_wrapped_iterator_spans_each_next(self, clock):
        class Source:
            def rows(self):
                for i in range(3):
                    clock.now += 1.0
                    yield [i] * (i + 1)

            def scale(self, x):
                clock.now += 0.5
                return x * 2

        t = Tracer()
        t.wrap_iter(Source, "rows", "src")
        t.wrap_call(Source, "scale", "scale")
        t.active = True
        src = Source()
        consumer = t.enter("consumer")
        out = [src.scale(len(batch)) for batch in src.rows()]
        t.exit(consumer)
        t.active = False
        assert out == [2, 4, 6]
        assert t.groups["src"].items == 1 + 2 + 3
        assert t.groups["src"].total_s == pytest.approx(3.0)
        assert t.groups["scale"].total_s == pytest.approx(1.5)
        assert t.groups["consumer"].self_s == pytest.approx(0.0)
        t.uninstall()
        assert "traced" not in Source.rows.__qualname__
        assert list(Source().rows()) == [[0], [1, 1], [2, 2, 2]]

    def test_inactive_tracer_records_nothing(self):
        class Thing:
            def go(self):
                return 1

        t = Tracer()
        t.wrap_call(Thing, "go", "go")
        assert Thing().go() == 1
        assert t.spans == [] and t.groups == {}
        t.uninstall()


class TestStatsDelta:
    def test_numeric_leaves_are_diffed(self):
        before = {
            "disk": {"page_reads": 10, "page_writes": 4},
            "buffer_pool": {"hit_rate": 0.5, "fetches": 100},
            "integrity": {"checksums": True, "quarantined": {}},
            "tables": {"Old": {"run_count": 3}},
        }
        after = {
            "disk": {"page_reads": 25, "page_writes": 4},
            "buffer_pool": {"hit_rate": 0.75, "fetches": 160},
            "integrity": {"checksums": True, "quarantined": {}},
            "tables": {"New": {"run_count": 2, "runs": [{"rid": 1}]}},
        }
        delta = stats_delta(before, after)
        assert delta["disk.page_reads"] == 15
        assert delta["disk.page_writes"] == 0
        assert delta["buffer_pool.fetches"] == 60
        assert delta["buffer_pool.hit_rate"] == pytest.approx(0.25)
        assert delta["tables.New.run_count"] == 2  # new table counts from 0
        assert "tables.Old.run_count" not in delta  # dropped table
        assert "integrity.checksums" not in delta  # bools are not counts
        assert not any(k.startswith("tables.New.runs") for k in delta)

    def test_real_store_snapshot(self):
        from repro import RodentStore, Schema

        store = RodentStore(page_size=1024, pool_capacity=8)
        store.create_table("T", Schema.of("a:int", "b:int"))
        before = store.storage_stats()
        store.load("T", [(i, i) for i in range(500)])
        list(store.table("T").scan())
        delta = stats_delta(before, store.storage_stats())
        store.close()
        assert delta["disk.page_writes"] > 0
        assert delta["buffer_pool.fetches"] > 0


def test_benchmark_json_matches_reported_metrics():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
