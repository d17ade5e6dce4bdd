"""The benchmark's three workloads.

Each workload builds its inputs from the seed, sets its store up through
the public API (``RodentStore``, ``Table``, ``Q``, ``storage_stats()``),
runs measured *blocks* of operations from one client thread in a closed
loop, and checks every answer outside the timed intervals. A block is the
unit both the plain and the traced run repeat: one round of the OLAP mix,
one pass over the CarTel windows, one levelled ingest epoch.
"""

from __future__ import annotations

import random
import shutil
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Callable

from perfbench.harness import (
    Calibrator,
    CpuWaitFreeClock,
    Recorder,
    median,
    tail_percentile,
)

from repro import Q, Range, RodentStore, Schema
from repro.workloads.cartel import (
    BOSTON,
    TRACE_SCHEMA,
    generate_traces,
    grid_strides_for,
    random_region_queries,
)
from repro.workloads.sales import SALES_SCHEMA, generate_sales, year_zip_queries

#: Reopens of the crash image per run; ``recovery_s`` is their median.
RECOVERY_REPEATS = 15


class Workload:
    """Shared shape: set-up, blocks, end-of-run figures."""

    name = ""
    #: ``"warm"`` when the buffer pool holds the working set, else ``"cold"``.
    cache = ""
    page_size = 8192
    pool_frames = 256
    durable = False
    #: Set-ups per plain run; ``setup_s`` is their median.
    setup_repeats = 5
    #: Highest percentile the tail rule may report. Each is the step the
    #: rule picks at the fewest samples a run yields, so runs that fit in
    #: more operations (a faster host, a faster commit) still report the
    #: same percentile.
    read_tail_cap = 99.0
    commit_tail_cap = 99.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: Times every measured interval (set-up, queries, commits).
        self.clock = CpuWaitFreeClock()
        #: Host-speed ticks between measured operations (plain runs only).
        self.cal = Calibrator(self.clock)
        self.store: RodentStore | None = None
        self.store_dir: Path | None = None
        #: Set by the traced run; blocks tag spans with an operation id.
        self.tracer = None
        self.blocks_run = 0

    # -- configuration -----------------------------------------------------

    def stamp(self) -> dict:
        return {
            "workload": self.name,
            "cache": self.cache,
            "page_size": self.page_size,
            "pool_frames": self.pool_frames,
            "scan_workers": 0,
            "durable": self.durable,
            "flush_policy": (
                "group_commit_window=0, WAL fsync per commit"
                if self.durable
                else "no WAL; pages flushed by save_catalog at set-up end"
            ),
        }

    def _open(self, path: Path) -> RodentStore:
        kwargs = dict(
            page_size=self.page_size,
            pool_capacity=self.pool_frames,
            scan_workers=0,
        )
        if self.durable:
            kwargs.update(durable=True, group_commit_window=0.0)
        kwargs.update(self.store_options())
        return RodentStore(str(path), **kwargs)

    def store_options(self) -> dict:
        return {}

    def _files(self, directory: Path) -> list[Path]:
        """The store's files: the page file, then the WAL and the catalog a
        durable store derives from it, or the catalog set-up saved."""
        pages = directory / "db.pages"
        if self.durable:
            return [pages, directory / "db.pages.wal",
                    directory / "db.pages.catalog.json"]
        return [pages, directory / "db.catalog.json"]

    # -- phases ---------------------------------------------------------------

    def setup(self, rec: Recorder, index: int) -> float:
        """Open a fresh store and load it; returns the set-up seconds,
        scaled to the reference host. A previous set-up's store is closed
        and deleted first."""
        self.close()
        directory = self.workdir / f"store-{index}"
        directory.mkdir(parents=True)
        self._segments: list[tuple[float, int]] = []
        self._setup_index = index
        self.store_dir = directory
        self.store = self._timed(self._open, directory / "db.pages")
        self.load(self.store, rec)
        self.cal.tick(force=True)
        return sum(raw * self.cal.scale(i) for raw, i in self._segments)

    def _timed(self, fn, *args):
        """Run one set-up step as its own measured segment, after a
        calibration tick."""
        index = self.cal.tick(force=True)
        start = self.clock()
        result = fn(*args)
        self._segments.append((self.clock() - start, index))
        return result

    def load(self, store: RodentStore, rec: Recorder) -> None:
        raise NotImplementedError

    def prepare_block(self) -> None:
        """Untimed work between blocks."""

    def block(self, rec: Recorder, variant: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Close the store and delete its files."""
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    # -- end of run -------------------------------------------------------------

    def finish(self, rec: Recorder) -> dict[str, float]:
        """End-of-run figures: write and space amplification, recovery."""
        raise NotImplementedError

    def _crash_image(self) -> Path:
        """Copy the store's files as they are on disk now: what a process
        crash at this instant would leave behind."""
        image = self.workdir / "crash"
        image.mkdir()
        for path in self._files(self.store_dir):
            if path.exists():
                shutil.copyfile(path, image / path.name)
        return image

    def _recovery_s(
        self,
        image: Path,
        opener: Callable[[Path], RodentStore],
        ask: Callable[[RodentStore], Any],
        verify: Callable[[Any], None],
    ) -> float:
        """Median seconds from reopening a fresh copy of ``image`` until
        ``ask`` has the store's first answer; ``verify`` checks each
        answer outside the timing."""
        times = []
        for _ in range(RECOVERY_REPEATS):
            target = self.workdir / "reopen"
            shutil.copytree(image, target)
            tick = self.cal.tick(force=True)
            start = self.clock()
            store = opener(target)
            try:
                answer = ask(store)
                times.append((self.clock() - start, tick))
            finally:
                store.close()
                shutil.rmtree(target)
            verify(answer)
        self.cal.tick(force=True)
        return median([raw * self.cal.scale(i) for raw, i in times])

    def read_tail(self, rec: Recorder) -> tuple[float, object]:
        """``read_tail_ms`` in seconds, and the percentile used."""
        return tail_percentile(rec.reads_s, self.read_tail_cap)

    def commit_p50(self, rec: Recorder) -> float:
        """``commit_p50_ms`` in seconds."""
        return median(rec.commits_s)

    def commit_tail(self, rec: Recorder) -> tuple[float, object]:
        """``commit_tail_ms`` in seconds, and the percentile used."""
        return tail_percentile(rec.commits_s, self.commit_tail_cap)

    def _tag(self, op: str) -> None:
        if self.tracer is not None:
            self.tracer.query_id = f"{self.blocks_run}:{op}"


def _check(rec: Recorder, ok: bool, what: str) -> None:
    rec.attempted += 1
    if not ok:
        rec.fail(what)


class _ReadOnly(Workload):
    """Shared parts of the two read workloads: their writes are the
    set-up's bulk loads, one transaction per table, and a restart reopens
    the page file and the catalog saved at the end of set-up."""

    def tables(self) -> list[tuple[str, Schema, str, list]]:
        """(name, schema, layout, records) of every table, in load order."""
        raise NotImplementedError

    def load(self, store: RodentStore, rec: Recorder) -> None:
        for name, schema, layout, records in self.tables():
            self._timed(store.create_table, name, schema, layout)
            self._timed(store.load, name, records)
            rec.commit(self._segments[-1][0], len(records), self._setup_index)
        self._timed(store.save_catalog, str(self.store_dir / "db.catalog.json"))

    # A set-up makes one load commit per table: too few for the
    # percentile rule, and of unlike sizes. Both commit figures are taken
    # per set-up (its median load, its slowest load), then the median
    # over set-ups.

    def _per_setup(self, rec: Recorder) -> list[list[float]]:
        loads: dict[int, list[float]] = {}
        for seconds, group in zip(rec.commits_s, rec.commit_groups):
            loads.setdefault(group, []).append(seconds)
        return list(loads.values())

    def commit_p50(self, rec: Recorder) -> float:
        return median([median(loads) for loads in self._per_setup(rec)])

    def commit_tail(self, rec: Recorder) -> tuple[float, object]:
        slowest = [max(loads) for loads in self._per_setup(rec)]
        return median(slowest), "median of per-set-up max"

    def user_bytes(self) -> int:
        return sum(
            schema.fixed_width() * len(records)
            for _, schema, _, records in self.tables()
        )

    def finish(self, rec: Recorder) -> dict[str, float]:
        stats = self.store.storage_stats()
        user = self.user_bytes()
        # The stores are not durable: no WAL bytes, every page written
        # once by the set-up's save_catalog flush (or by eviction).
        write_amp = stats["disk"]["page_writes"] * self.page_size / user
        space_amp = stats["disk"]["allocated_pages"] * self.page_size / user
        expected = {
            name: [(len(records),)] for name, _, _, records in self.tables()
        }

        def opener(directory: Path) -> RodentStore:
            return RodentStore.open(
                str(directory / "db.pages"),
                str(directory / "db.catalog.json"),
                page_size=self.page_size,
                pool_capacity=self.pool_frames,
                scan_workers=0,
            )

        def ask(store: RodentStore) -> dict:
            return {name: Q(store, name).agg(n="*").run() for name in expected}

        def verify(counts: dict) -> None:
            _check(rec, counts == expected, "row counts after reopen")

        recovery_s = self._recovery_s(
            self._crash_image(), opener, ask, verify
        )
        return {
            "write_amp": write_amp,
            "space_amp": space_amp,
            "recovery_s": recovery_s,
        }


# ---------------------------------------------------------------------------
# olap_warm
# ---------------------------------------------------------------------------


class OlapWarm(_ReadOnly):
    """Sales rows in row, column and mirrored designs plus a Customers
    dimension; a fixed round of five query shapes per design. The pool
    holds every page, so the timed window reads nothing from disk."""

    name = "olap_warm"
    cache = "warm"
    page_size = 8192
    pool_frames = 4096
    n_sales = 16_000
    #: 50 or more rounds fit in a 20 s run: p75 keeps 10 beyond it.
    read_tail_cap = 75.0
    n_customers = 2_000
    n_windows = 4
    designs = (
        ("Sales_rows", "rows({t})"),
        ("Sales_columns", "columns({t})"),
        ("Sales_mirror", "mirror(rows({t}), columns({t}))"),
    )
    customer_schema = Schema.of("customerid:int", "region:int", "score:int")
    shapes = ("scan", "project", "filter", "groupby", "join")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.sales = generate_sales(self.n_sales, seed=seed)
        rng = random.Random(seed * 7919 + 1)
        self.customers = [
            (c, rng.randrange(8), rng.randrange(1000))
            for c in range(self.n_customers)
        ]
        self.windows = year_zip_queries(self.n_windows, seed=seed + 1)
        self.expected = self._oracle()
        self._verified: dict[tuple, list] = {}

    def stamp(self) -> dict:
        return {**super().stamp(), "sales_rows": self.n_sales,
                "customers": self.n_customers}

    def tables(self):
        out = [
            (name, SALES_SCHEMA, layout.format(t=name), self.sales)
            for name, layout in self.designs
        ]
        out.append(
            ("Customers", self.customer_schema, "rows(Customers)",
             self.customers)
        )
        return out

    def _oracle(self) -> dict:
        """Each shape's answer, computed in plain Python from the records."""
        sales = self.sales
        expected = {
            "scan": sorted(sales),
            "project": sorted((r[5], r[6]) for r in sales),
        }
        for i, window in enumerate(self.windows):
            bounds = window.ranges()
            (ylo, yhi), (zlo, zhi) = bounds["year"], bounds["zipcode"]
            expected[("filter", i)] = sorted(
                r for r in sales if ylo <= r[1] <= yhi and zlo <= r[0] <= zhi
            )
        by_year: dict[int, list[int]] = {}
        for r in sales:
            acc = by_year.setdefault(r[1], [0, 0])
            acc[0] += 1
            acc[1] += r[7]
        expected["groupby"] = sorted((y, n, s) for y, (n, s) in by_year.items())
        region = {c[0]: c[1] for c in self.customers}
        by_region: dict[int, list[int]] = {}
        for r in sales:
            acc = by_region.setdefault(region[r[4]], [0, 0])
            acc[0] += 1
            acc[1] += r[7]
        expected["join"] = sorted(
            (g, n, s) for g, (n, s) in by_region.items()
        )
        return expected

    def _query(self, table: str, shape: str, window):
        q = Q(self.store, table)
        if shape == "project":
            q = q.select("productid", "quantity")
        elif shape == "filter":
            q = q.where(window)
        elif shape == "groupby":
            q = q.group_by("year").agg(n="*", revenue="sum:price")
        elif shape == "join":
            q = q.join("Customers", on="customerid").group_by("region").agg(
                n="*", revenue="sum:price"
            )
        return q.run()

    def load(self, store: RodentStore, rec: Recorder) -> None:
        super().load(store, rec)
        self._timed(self._warm_up)

    def _warm_up(self) -> None:
        """One round that fills the pool and the decoded-chunk caches."""
        for table, _ in self.designs:
            for shape in self.shapes:
                self._query(table, shape, self.windows[0])

    def block(self, rec: Recorder, variant: int) -> None:
        w = variant % len(self.windows)
        window = self.windows[w]
        results = []
        round_s = 0.0
        self.cal.tick()
        for table, _ in self.designs:
            for shape in self.shapes:
                self._tag(f"{table}.{shape}")
                start = self.clock()
                result = self._query(table, shape, window)
                elapsed = self.clock() - start
                round_s += elapsed
                results.append((table, shape, result))
        rec.read(round_s, len(results))
        for table, shape, result in results:
            key = (table, shape, w if shape == "filter" else None)
            if result == self._verified.get(key):
                _check(rec, True, "")
                continue
            want = self.expected[("filter", w) if shape == "filter" else shape]
            ok = sorted(result) == want
            _check(rec, ok, f"{table} {shape}")
            if ok:
                self._verified[key] = result


# ---------------------------------------------------------------------------
# cartel_cold
# ---------------------------------------------------------------------------


class CartelCold(_ReadOnly):
    """CarTel traces under the paper's N3 (grid) and N4 (compressed delta
    z-ordered grid) designs in a file-backed store whose pool is far
    smaller than either table; random 1%-area windows, each asked of N3
    and then N4."""

    name = "cartel_cold"
    cache = "cold"
    page_size = 4096
    pool_frames = 16
    n_traces = 50_000
    #: A fleet large enough that the traces cover the whole area: with a
    #: few vehicles, how dense the windows are would depend on the seed.
    n_vehicles = 100
    #: Windows per block; many, so their mean selectivity barely moves
    #: from seed to seed.
    n_windows = 1000

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.traces = generate_traces(
            self.n_traces, n_vehicles=self.n_vehicles, seed=seed
        )
        self.windows = random_region_queries(self.n_windows, seed=seed + 1)
        lat_stride, lon_stride = grid_strides_for(BOSTON)
        grid = f"grid[lat, lon],[{lat_stride:g}, {lon_stride:g}]"
        self.layouts = {
            "N3": f"{grid}(project[lat, lon](groupby[id](orderby[t](N3))))",
            "N4": (
                f"compress[varint; lat, lon](delta[lat, lon](zorder({grid}"
                "(project[lat, lon](groupby[id](orderby[t](N4)))))))"
            ),
        }
        points = sorted((r[1], r[2]) for r in self.traces)
        lats = [p[0] for p in points]
        self.expected = []
        for window in self.windows:
            bounds = window.ranges()
            (alo, ahi), (olo, ohi) = bounds["lat"], bounds["lon"]
            lo, hi = bisect_left(lats, alo), bisect_right(lats, ahi)
            self.expected.append(
                [p for p in points[lo:hi] if olo <= p[1] <= ohi]
            )

    def stamp(self) -> dict:
        return {**super().stamp(), "traces": self.n_traces,
                "vehicles": self.n_vehicles, "windows": self.n_windows,
                "window_area": 0.01}

    def tables(self):
        return [
            (name, TRACE_SCHEMA, layout, self.traces)
            for name, layout in self.layouts.items()
        ]

    def block(self, rec: Recorder, variant: int) -> None:
        for i, window in enumerate(self.windows):
            for table in ("N3", "N4"):
                self._tag(f"{table}.w{i}")
                self.cal.tick()
                start = self.clock()
                result = Q(self.store, table).select("lat", "lon").where(
                    window
                ).run()
                rec.read(self.clock() - start)
                _check(rec, sorted(result) == self.expected[i],
                       f"{table} window {i}")


# ---------------------------------------------------------------------------
# levelled_ingest
# ---------------------------------------------------------------------------


class LevelledIngest(Workload):
    """Durable keyed levelled ingest: 64-row commits (20% upserts), a
    point lookup after every 4th commit, a 16-key range delete after every
    64th. Every epoch (block) replays the same script on a freshly loaded
    table, so each epoch is the same work however many fit in a run."""

    name = "levelled_ingest"
    cache = "warm"
    page_size = 8192
    pool_frames = 256
    durable = True
    #: Three epochs or more per run: 192+ lookups, 768+ commits.
    read_tail_cap = 90.0
    commit_tail_cap = 95.0
    schema = Schema.of("id:int", "grp:int", "val:int", "ts:int")
    layout = "levels[4; 4; r.id](rows(E))"
    #: Seals every 4th commit, so merges into levels 1, 2 and 3 cascade
    #: from every 16th, 64th and 256th commit: the commit tail (p95) falls
    #: among the commits that merge into level 1 only, not on a boundary
    #: between two kinds of commit.
    seal_rows = 256
    base_rows = 4096
    commits = 256
    batch = 64
    upsert_share = 0.2
    lookup_every = 4
    delete_every = 64
    delete_span = 16

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.base = [self._row(rng, k, -1) for k in range(self.base_rows)]
        model = {r[0]: r for r in self.base}
        live = list(model)  # live keys, for uniform random choice
        where = {k: i for i, k in enumerate(live)}
        next_key = self.base_rows
        self.script: list[tuple] = []
        for c in range(self.commits):
            chosen: set[int] = set()
            rows = []
            for _ in range(self.batch):
                if rng.random() < self.upsert_share:
                    key = live[rng.randrange(len(live))]
                    while key in chosen:
                        key = live[rng.randrange(len(live))]
                else:
                    key, next_key = next_key, next_key + 1
                    where[key] = len(live)
                    live.append(key)
                chosen.add(key)
                rows.append(self._row(rng, key, c))
            for row in rows:
                model[row[0]] = row
            self.script.append(("insert", rows))
            if c % self.lookup_every == self.lookup_every - 1:
                key = live[rng.randrange(len(live))]
                self.script.append(("lookup", key, model[key]))
            if c % self.delete_every == self.delete_every - 1:
                lo = rng.randrange(next_key - self.delete_span)
                hi = lo + self.delete_span - 1
                gone = 0
                for key in range(lo, hi + 1):
                    if model.pop(key, None) is not None:
                        gone += 1
                        # swap-remove from the live list
                        i, last = where.pop(key), live.pop()
                        if last != key:
                            live[i] = last
                            where[last] = i
                self.script.append(("delete", lo, hi, gone))
        self.final = sorted(model.values())
        self._fresh = False
        self._stores = 0  # stores opened; names each store's directory
        self._written = 0  # data-file and WAL bytes of the counted stores
        self._user_rows = 0  # rows those stores were given

    @staticmethod
    def _row(rng: random.Random, key: int, commit: int) -> tuple:
        return (key, key % 16, rng.randrange(1 << 30), commit)

    def stamp(self) -> dict:
        return {
            **super().stamp(),
            "layout": self.layout,
            "level_seal_rows": self.seal_rows,
            "base_rows": self.base_rows,
            "commits_per_epoch": self.commits,
            "rows_per_commit": self.batch,
        }

    def store_options(self) -> dict:
        return {"level_seal_rows": self.seal_rows}

    def _checkpoint(self) -> None:
        # Checkpoints truncate the WAL: count its bytes first.
        self._written += self.store.storage_stats()["wal"]["wal_bytes"]
        self.store.checkpoint()

    def setup(self, rec: Recorder, index: int) -> float:
        # Only the last set-up's store carries on into the epochs.
        self._written = self._user_rows = 0
        self._stores = index + 1
        return super().setup(rec, index)

    def load(self, store: RodentStore, rec: Recorder) -> None:
        self._timed(store.create_table, "E", self.schema, self.layout)
        self._timed(store.load, "E", self.base)
        self._timed(self._checkpoint)
        self._user_rows += self.base_rows
        self._fresh = True

    def _retire(self) -> None:
        """Flush the store and count the page bytes it wrote."""
        self._checkpoint()
        pages = self.store.storage_stats()["disk"]["page_writes"]
        self._written += pages * self.page_size

    def prepare_block(self) -> None:
        # Every epoch after the first starts from a fresh store, so each
        # epoch's file layout, WAL and recovery work are the same.
        if not self._fresh:
            self._retire()
            written, rows = self._written, self._user_rows
            self.setup(Recorder(), self._stores)
            self._written += written
            self._user_rows += rows

    def block(self, rec: Recorder, variant: int) -> None:
        self._fresh = False
        store = self.store
        table = store.table("E")
        for i, op in enumerate(self.script):
            self._tag(f"{op[0]}{i}")
            self.cal.tick()
            if op[0] == "insert":
                start = self.clock()
                table.insert(op[1])
                rec.commit(self.clock() - start, len(op[1]))
                rec.attempted += 1
                self._user_rows += len(op[1])
            elif op[0] == "lookup":
                _, key, want = op
                start = self.clock()
                got = Q(store, "E").where(Range("id", key, key)).run()
                rec.read(self.clock() - start)
                _check(rec, got == [want], f"lookup {key}")
            else:
                _, lo, hi, gone = op
                removed = table.delete(Range("id", lo, hi))
                _check(rec, removed == gone, f"delete [{lo}, {hi}]")

    def finish(self, rec: Recorder) -> dict[str, float]:
        # The crash image holds the last epoch's WAL, not yet checkpointed.
        image = self._crash_image()
        self._retire()
        width = self.schema.fixed_width()
        allocated = self.store.storage_stats()["disk"]["allocated_pages"]

        def verify(rows: list) -> None:
            _check(rec, sorted(rows) == self.final, "recovered table")

        recovery_s = self._recovery_s(
            image,
            lambda directory: self._open(directory / "db.pages"),
            lambda store: list(store.table("E").scan()),
            verify,
        )
        return {
            "write_amp": self._written / (self._user_rows * width),
            "space_amp": allocated * self.page_size / (len(self.final) * width),
            "recovery_s": recovery_s,
        }


WORKLOADS = {
    cls.name: cls for cls in (OlapWarm, CartelCold, LevelledIngest)
}
