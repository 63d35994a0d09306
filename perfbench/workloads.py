"""The five benchmark workloads.

Each workload builds ``build_workload_database(scale, seed)``, opens
what it measures through (a session, prepared handles, or an HTTP
server with clients), plans a seeded list of *rounds* and warms every
distinct statement once.  A round holds every statement shape of the
workload exactly once, in seeded order with seeded constants, so the
mix of cheap and expensive statements is the same in every run and a
run that stops at a round boundary has measured the same mix.  The
number of read shapes per round is odd wherever their latencies fall
in separate clusters, so the median lands inside one cluster and not
on the gap between two.

Why each workload exists and what it bypasses is in ``README.md``.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import random
import re
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass

from oracle import order_of, same_rows
from repro import connect
from repro.data.generator import GeneratorConfig
from repro.data.workloads import build_workload_database
from repro.database import Database
from repro.ivm.delta import Delta
from repro.obs import parse_prometheus
from repro.relational.relation import Relation
from repro.server import Client, Server
from repro.sql import parse_query
from tracing import ResponseBytes, install_query_spans

READ, WRITE = "read", "write"
_now = time.perf_counter


# ---------------------------------------------------------------------------
# Statement shapes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shape:
    """One statement shape; ``binds`` names the constants it draws."""

    name: str
    sql: str
    binds: str = ""  # "", "price", "package" or "window<N>" (1/N of the dates)


#: Low-cardinality Fig. 3 AGG shapes and expression shapes.  E5 is left
#: out: its expression selection takes the flat path (1.3 s per op at
#: scale 4) and would be nine tenths of the workload's time.
AGG_SHAPES = (
    Shape("Q2", "SELECT customer, SUM(price) AS revenue FROM R1 "
          "WHERE price > :k GROUP BY customer", "price"),
    Shape("Q4", "SELECT package, SUM(price) AS total FROM R1 "
          "WHERE price > :k GROUP BY package", "price"),
    Shape("Q5", "SELECT SUM(price) AS total FROM R1 "
          "WHERE date >= :lo AND date < :hi", "window3"),
    Shape("Q7", "SELECT customer, SUM(price) AS revenue FROM R1 "
          "WHERE price > :k GROUP BY customer ORDER BY revenue", "price"),
    Shape("E1", "SELECT customer, SUM(price * 2 + 1) AS adjusted FROM R1 "
          "WHERE date >= :lo AND date < :hi GROUP BY customer", "window3"),
    Shape("E2", "SELECT package, SUM(price * price) AS sum_sq FROM R1 "
          "WHERE price > :k GROUP BY package", "price"),
    Shape("E3", "SELECT date, AVG(price * 3 - 1) AS mean_scaled FROM R1 "
          "WHERE date >= :lo AND date < :hi GROUP BY date", "window8"),
)

_Q3 = "SELECT date, package, SUM(price) AS total FROM R1 GROUP BY date, package"

#: ORD, AGG+ORD and ORD+LIMIT shapes with 1k–10k result rows.
ORD_SHAPES = (
    Shape("Q1", "SELECT package, date, customer, SUM(price) AS total FROM R1 "
          "GROUP BY package, date, customer"),
    Shape("Q3", _Q3),
    Shape("Q8", _Q3 + " ORDER BY date, package"),
    Shape("Q9", _Q3 + " ORDER BY package, date"),
    Shape("Q13", "SELECT * FROM R3 ORDER BY customer, date, package"),
    Shape("Q11-1k", "SELECT * FROM R2 ORDER BY package, item, date LIMIT 1000"),
    Shape("Q11-10k", "SELECT * FROM R2 ORDER BY package, item, date LIMIT 10000"),
    Shape("Q12-1k", "SELECT * FROM R2 ORDER BY date, package, item LIMIT 1000"),
    Shape("Q12-10k", "SELECT * FROM R2 ORDER BY date, package, item LIMIT 10000"),
    Shape("slice", "SELECT * FROM R2 WHERE package = :p "
          "ORDER BY package, date, item", "package"),
    Shape("top3", "SELECT customer, SUM(price) AS revenue FROM R1 "
          "GROUP BY customer ORDER BY revenue DESC LIMIT 3"),
)

_Q2_PLAIN = "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer"
_Q4_PLAIN = "SELECT package, SUM(price) AS total FROM R1 GROUP BY package"
_UNTOUCHED = "SELECT package, COUNT(*) AS items FROM Packages GROUP BY package"

#: Eight statements the served workload repeats; they fit the server's
#: 256-entry shared result cache.  The 1000-row ordered LIMIT is there
#: for its response size.
HOT_STATEMENTS = (
    _Q2_PLAIN,
    _Q4_PLAIN,
    "SELECT SUM(price) AS total FROM R1",
    _Q2_PLAIN + " ORDER BY revenue",
    "SELECT package, SUM(price * price) AS sum_sq FROM R1 GROUP BY package",
    "SELECT customer, SUM(price) AS revenue FROM R1 "
    "GROUP BY customer ORDER BY revenue DESC LIMIT 3",
    _UNTOUCHED,
    "SELECT * FROM R2 ORDER BY package, item, date LIMIT 1000",
)

#: Seven shapes the served workload sends with a fresh date window each
#: time, so no result is ever reused.
COLD_SHAPES = tuple(
    sql.replace("WHERE price > :k", "WHERE date >= :lo AND date < :hi")
    for sql in (shape.sql for shape in AGG_SHAPES[:6])
) + (
    "SELECT * FROM R3 WHERE date >= :lo AND date < :hi "
    "ORDER BY customer, date, package",
)


def _date(index: int) -> str:
    return f"d{index:07d}"


def inline(sql: str, params: dict) -> str:
    """The statement as ad-hoc SQL text, constants written in."""
    def literal(match):
        value = params[match.group(1)]
        return f"'{value}'" if isinstance(value, str) else str(value)

    return re.sub(r":(\w+)", literal, sql)


def _frozen(params: "dict | None") -> tuple:
    return tuple(sorted((params or {}).items()))


class Op:
    """One planned operation: what to run and what to check it against."""

    __slots__ = ("kind", "run", "sql", "params", "key", "delta")

    def __init__(self, kind, run, sql="", params=None, key=None, delta=None):
        self.kind = kind
        self.run = run
        self.sql = sql  # reads: the statement the oracle runs
        self.params = params
        self.key = key if key is not None else (sql, _frozen(params))
        self.delta = delta  # writes: the change, for the oracle's replay


class Log:
    """What one measured phase observed."""

    def __init__(self) -> None:
        self.read_s: list[float] = []
        self.write_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seconds = 0.0
        # One list per closed-loop client: (ops, rows, seconds) per round.
        self.clients: list[list[tuple]] = [[]]
        self.first: dict = {}  # key -> (op, what its first execution returned)
        self.lengths: dict = {}  # key -> row counts seen
        self.count: Counter = Counter()

    @property
    def rounds(self) -> int:
        return sum(len(rounds) for rounds in self.clients)

    def rates(self) -> tuple[float, float]:
        """(operations, rows) per second, summed over the clients.

        Every round of a client holds the same operations, so a
        client's rate is that of its median round: a stall of the host
        during a few rounds then moves neither number.
        """
        ops = rows = 0.0
        for rounds in self.clients:
            if rounds:
                ops += statistics.median(n / s for n, _, s in rounds)
                rows += statistics.median(r / s for _, r, s in rounds)
        return ops, rows

    def merge(self, other: "Log", concurrent: bool = False) -> None:
        """Fold in another phase, or another client of the same phase."""
        self.read_s += other.read_s
        self.write_s += other.write_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        if concurrent:
            self.seconds = max(self.seconds, other.seconds)
            self.clients += other.clients
        else:
            self.seconds += other.seconds
            self.clients[0] += [r for rounds in other.clients for r in rounds]
        for key, entry in other.first.items():
            self.first.setdefault(key, entry)
        for key, seen in other.lengths.items():
            self.lengths.setdefault(key, set()).update(seen)
        self.count.update(other.count)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(reason)


def drive(rounds, seconds, min_ops, rows_of, log, observer=None) -> None:
    """The closed loop: whole rounds until ``seconds`` have passed."""
    start = _now()
    deadline = start + seconds
    finished = log.clients[0]
    for ops in rounds:
        round_start = _now()
        done = delivered = 0
        for op in ops:
            log.attempted += 1
            began = _now()
            try:
                out = op.run()
                rows = rows_of(out) if op.kind == READ else None
            except Exception as error:  # a failed op is counted, not fatal
                log.fail(1, f"{type(error).__name__}: {error}")
                continue
            spent = _now() - began
            done += 1
            if rows is None:
                log.write_s.append(spent)
            else:
                log.read_s.append(spent)
                delivered += len(rows)
                key = op.key
                log.count[key] += 1
                if key not in log.first:
                    log.first[key] = (op, out)
                    log.lengths[key] = {len(rows)}
                else:
                    log.lengths[key].add(len(rows))
            if observer is not None:
                observer(op, out)
        now = _now()
        finished.append((done, delivered, now - round_start))
        if now >= deadline and log.attempted >= min_ops:
            break
    log.seconds += _now() - start


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Set-up, measured loop and correctness check of one workload."""

    name = ""
    rounds_planned = 64
    TRACE_PHASES = 2  # a traced run splits --seconds into this many loops

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.database = None
        self.session = None
        self.warmup_seconds = 0.0

    # -- set-up -----------------------------------------------------------
    def set_up(self) -> None:
        """generate + join + factorise + connect + one warm-up pass."""
        self.database = build_workload_database(scale=self.scale, seed=self.seed)
        started = _now()
        rng = random.Random(f"{self.seed}/{self.name}")
        self.open()
        self.rounds = self.plan(rng)
        self.cursor = self.start_cursor()
        self.warm_up()
        self.warmup_seconds = _now() - started

    def start_cursor(self):
        return itertools.cycle(self.rounds)

    def open(self) -> None:
        raise NotImplementedError

    def plan(self, rng) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        seen = set()
        for ops in self.rounds:
            for op in ops:
                if op.kind == READ and op.key not in seen:
                    seen.add(op.key)
                    op.run()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        self.database = None

    # -- facts the planners draw constants from ------------------------------
    def _dates(self) -> int:
        return GeneratorConfig(scale=self.scale).n_dates

    def _packages(self) -> list[str]:
        return sorted({row[0] for row in self.database.flat("Packages").rows})

    def _bindings(self, rng, binds: str, count: int = 4) -> list[dict]:
        if not binds:
            return [{}]
        if binds == "price":
            return [{"k": k} for k in rng.sample(range(2, 15), count)]
        if binds == "package":
            return [{"p": p} for p in rng.sample(self._packages(), count)]
        dates = self._dates()
        width = max(1, dates // int(binds[len("window"):]))
        starts = rng.sample(range(max(1, dates - width)), count)
        return [{"lo": _date(s), "hi": _date(s + width)} for s in starts]

    # -- measured loop ------------------------------------------------------
    @staticmethod
    def rows_of(out):
        return out.rows

    def measure(self, seconds: float, min_ops: int, observer=None) -> Log:
        log = Log()
        drive(self.cursor, seconds, min_ops, self.rows_of, log, observer)
        return log

    def traced(self, seconds: float, min_ops: int, tracer, observer):
        """The loop again with layer spans on: (traced log, the log the
        layer times belong to, further per-layer metrics)."""
        install_query_spans(tracer)
        log = self.measure(seconds, min_ops, observer)
        return log, log, {"caches": self.cache_stats()}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cache_stats(self) -> dict:
        """hits/misses/invalidations of the session's two caches."""
        caches = self.session.caches
        return {
            "plan": (caches.plans.stats.hits, caches.plans.stats.misses, 0),
            "result": (
                caches.results.stats.hits,
                caches.results.stats.misses,
                caches.results.stats.invalidations,
            ),
        }

    # -- correctness ----------------------------------------------------------
    def check(self, log: Log) -> list[float]:
        """Compare every distinct statement with sqlite; returns the
        oracle's per-statement seconds and counts mismatches into
        ``log.failed``."""
        return check_statements(self.database, log, log.first)


def check_statements(database, log: Log, entries: dict) -> list[float]:
    timings = []
    with connect(database, engine="sqlite", cache=False) as oracle:
        oracle.sql("SELECT COUNT(*) AS n FROM Items")  # loads the tables
        for key, (op, got) in entries.items():
            began = _now()
            want = oracle.sql(op.sql, params=op.params)
            want.rows  # fetched inside the timed part
            timings.append(_now() - began)
            keys, limited = order_of(parse_query(op.sql))
            if len(log.lengths[key]) != 1 or not same_rows(
                got, want, keys, limited
            ):
                log.fail(log.count[key], f"oracle mismatch: {op.sql} {op.params}")
    return timings


class _ReadOnly(Workload):
    """Rounds of every shape once, constants from a small seeded domain."""

    shapes: tuple = ()

    def plan(self, rng) -> list:
        domains = {
            shape.name: [
                self.make_op(shape, params)
                for params in self._bindings(rng, shape.binds)
            ]
            for shape in self.shapes
        }
        rounds = []
        for _ in range(self.rounds_planned):
            ops = [rng.choice(domains[shape.name]) for shape in self.shapes]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def make_op(self, shape: Shape, params: dict) -> Op:
        raise NotImplementedError


class AggAdhoc(_ReadOnly):
    """SQL text through ``session.sql`` on a session without caches."""

    name = "agg_adhoc"
    shapes = AGG_SHAPES

    def open(self) -> None:
        self.session = connect(self.database, cache=False)

    def make_op(self, shape: Shape, params: dict) -> Op:
        text = inline(shape.sql, params)
        sql = self.session.sql
        return Op(READ, lambda: sql(text), text)


class AggPrepared(_ReadOnly):
    """The same shapes prepared once and run with bound parameters."""

    name = "agg_prepared"
    shapes = AGG_SHAPES

    def open(self) -> None:
        self.session = connect(self.database, cache=False)
        self.handles = {
            shape.name: self.session.prepare(shape.sql) for shape in self.shapes
        }

    def make_op(self, shape: Shape, params: dict) -> Op:
        handle = self.handles[shape.name]
        return Op(READ, lambda: handle.run(**params), shape.sql, params)


class OrdEnum(AggPrepared):
    """Prepared ordered and large-output queries."""

    name = "ord_enum"
    shapes = ORD_SHAPES
    rounds_planned = 32


class MixedRW(Workload):
    """Writes interleaved with cached reads over the maintained views.

    A round is insert (every fourth round: a re-pricing), Q2, Q4, the
    untouched read, delete, Q2, Q4, the untouched read.  Q2 and Q4 miss
    the result cache because a write came first; the untouched read
    hits it once the change log shows the write did not concern it.
    Both halves read in the same order so that the six read latencies
    of a round are three pairs, and the median falls inside a pair.
    """

    name = "mixed_rw"
    rounds_planned = 1024
    CHECKPOINTS = 6

    def open(self) -> None:
        self.session = connect(self.database)
        self.base = {
            name: (self.database.schema(name), list(self.database.flat(name).rows))
            for name in ("Orders", "Packages", "Items")
        }

    def start_cursor(self):
        return iter(self.rounds)  # writes are not replayed twice

    def plan(self, rng) -> list:
        config = GeneratorConfig(scale=self.scale)
        session = self.session
        orders = list(self.base["Orders"][1])
        present = set(orders)
        prices = dict(self.base["Items"][1])
        items = sorted(prices)
        customers = sorted({row[0] for row in orders})
        packages = self._packages()
        dates = self._dates()

        def read(sql, index, slot):
            return Op(READ, lambda: session.sql(sql), sql, key=(sql, index, slot))

        rounds = []
        for index in range(self.rounds_planned):
            if index % 4 == 3:
                item = rng.choice(items)
                old = prices[item]
                new = rng.choice(
                    [p for p in range(1, config.max_price + 1) if p != old]
                )
                prices[item] = new
                delta = Delta.delete("Items", [(item, old)]) + Delta.insert(
                    "Items", [(item, new)]
                )
                first = Op(
                    WRITE, lambda d=delta: session.apply(d), delta=delta
                )
            else:
                while True:
                    row = (
                        rng.choice(customers),
                        _date(rng.randrange(dates)),
                        rng.choice(packages),
                    )
                    if row not in present:
                        break
                present.add(row)
                orders.append(row)
                first = Op(
                    WRITE,
                    lambda r=row: session.insert("Orders", [r]),
                    delta=Delta.insert("Orders", [row]),
                )
            victim = orders.pop(rng.randrange(len(orders)))
            present.discard(victim)
            second = Op(
                WRITE,
                lambda r=victim: session.delete("Orders", [r]),
                delta=Delta.delete("Orders", [victim]),
            )
            rounds.append([
                first,
                read(_Q2_PLAIN, index, 1),
                read(_Q4_PLAIN, index, 2),
                read(_UNTOUCHED, index, 3),
                second,
                read(_Q2_PLAIN, index, 5),
                read(_Q4_PLAIN, index, 6),
                read(_UNTOUCHED, index, 7),
            ])
        return rounds

    def warm_up(self) -> None:
        for sql in (_Q2_PLAIN, _Q4_PLAIN, _UNTOUCHED):
            self.session.sql(sql)

    def check(self, log: Log) -> list[float]:
        """Replay the executed writes on base relations only, in a
        database of their own that no view maintenance touches, and
        compare the reads after the last write of six evenly spaced
        rounds (the last round among them) with sqlite's answer over
        the join of the base relations."""
        done = log.rounds
        marks = sorted({
            max(0, done * (i + 1) // self.CHECKPOINTS - 1)
            for i in range(self.CHECKPOINTS)
        })
        joined = "FROM Orders, Packages, Items"
        expected_sql = {
            _Q2_PLAIN: _Q2_PLAIN.replace("FROM R1", joined),
            _Q4_PLAIN: _Q4_PLAIN.replace("FROM R1", joined),
            _UNTOUCHED: _UNTOUCHED,
        }
        independent = Database(
            Relation(schema, rows, name=name)
            for name, (schema, rows) in self.base.items()
        )
        timings = []
        with connect(independent, engine="sqlite", cache=False) as oracle:
            for index in range(done):
                for op in self.rounds[index]:
                    if op.kind == WRITE:
                        oracle.apply(op.delta)
                if index not in marks:
                    continue
                for op in self.rounds[index][5:]:  # the reads after its last write
                    began = _now()
                    want = oracle.sql(expected_sql[op.sql])
                    want.rows  # fetched inside the timed part
                    timings.append(_now() - began)
                    entry = log.first.get(op.key)
                    if entry is None or not same_rows(entry[1], want):
                        log.fail(1, f"oracle mismatch in round {index}: {op.sql}")
        return timings


def _serve(database, pipe) -> None:
    """The server child: serve until the parent says stop or goes away."""
    server = Server(database, port=0).start()
    gc.collect()
    gc.freeze()
    pipe.send(server.port)
    try:
        pipe.recv()
    except EOFError:
        pass
    server.stop()


class ServedHTTP(Workload):
    """Two closed-loop clients against the HTTP server in a child process.

    A round per client is the eight hot statements and seven cold ones;
    eight and seven, not half and half, so that the median is a hot
    (cached) response and the tail a cold one.
    """

    name = "served_http"
    rounds_planned = 256
    TRACE_PHASES = 3  # HTTP untraced, HTTP with byte counting, in-process
    CLIENTS = 2
    COLD_CHECKED = 32

    def __init__(self, scale: float, seed: int) -> None:
        super().__init__(scale, seed)
        self.clients = []
        self.process = None
        self.pipe = None

    def open(self) -> None:
        context = multiprocessing.get_context("fork")
        self.pipe, child_end = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(self.database, child_end), daemon=True
        )
        self.process.start()
        child_end.close()
        port = self.pipe.recv()
        self.clients = [Client(port=port, timeout=60.0) for _ in range(self.CLIENTS)]

    def plan(self, rng) -> list:
        dates = self._dates()
        width = max(1, dates // 8)

        def cold(sql):
            start = rng.randrange(dates - width)
            return inline(sql, {"lo": _date(start), "hi": _date(start + width)})

        per_client = []
        for client in self.clients:
            query = client.query
            rounds = []
            for _ in range(self.rounds_planned):
                texts = list(HOT_STATEMENTS) + [cold(sql) for sql in COLD_SHAPES]
                rng.shuffle(texts)
                rounds.append(
                    [Op(READ, lambda t=text, q=query: q(t), text) for text in texts]
                )
            per_client.append(rounds)
        self.cursors = [itertools.cycle(rounds) for rounds in per_client]
        return per_client[0]

    def warm_up(self) -> None:
        # One full round per connection: the hot set is cached, and each
        # connection's pooled session has planned every shape once.
        for cursor in self.cursors:
            for op in next(cursor):
                op.run()

    @staticmethod
    def rows_of(out):
        return out["rows"]

    def measure(self, seconds: float, min_ops: int, observer=None) -> Log:
        logs = [Log() for _ in self.cursors]
        threads = [
            threading.Thread(
                target=drive,
                args=(cursor, seconds, min_ops, self.rows_of, log),
            )
            for cursor, log in zip(self.cursors, logs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = logs[0]
        for log in logs[1:]:
            merged.merge(log, concurrent=True)
        return merged

    def traced(self, seconds: float, min_ops: int, tracer, observer):
        received = ResponseBytes()
        received.install()
        try:
            over_http = self.measure(seconds, min_ops)
        finally:
            received.uninstall()
        scraped = self.cache_stats()
        in_process = self.replay(seconds, min_ops, tracer, observer)
        http_p50 = statistics.median(over_http.read_s)
        local_p50 = statistics.median(in_process.read_s)
        return over_http, in_process, {
            "caches": scraped,
            "server.http_overhead_ms": (http_p50 - local_p50) * 1000.0,
            "server.response_bytes": received.total / len(over_http.read_s),
            "server.pool_wait_ms": (
                scraped["pool_wait_s"] * 1000.0 / scraped["pool_waits"]
                if scraped["pool_waits"]
                else 0.0
            ),
        }

    def replay(self, seconds: float, min_ops: int, tracer, observer) -> Log:
        """The first client's statements run in-process, through a
        session with the server's cache sizes: what the same work costs
        without HTTP, and where its time goes."""
        with connect(self.database) as session:
            for sql in HOT_STATEMENTS:
                session.sql(sql)
            install_query_spans(tracer)
            rounds = (
                [Op(READ, lambda t=op.sql: session.sql(t), op.sql) for op in ops]
                for ops in itertools.cycle(self.rounds)
            )
            log = Log()
            drive(rounds, seconds, min_ops, Workload.rows_of, log, observer)
        return log

    def cache_stats(self) -> dict:
        """The server's own counters, through ``Client.metrics()``."""
        families = parse_prometheus(self.clients[0].metrics())

        def sample(family, series, **labels):
            wanted = tuple(sorted(labels.items()))
            return families.get(family, {}).get("samples", {}).get(
                (series, wanted), 0.0
            )

        cache = "repro_cache_events_total"
        wait = "repro_pool_admission_wait_seconds"
        return {
            "plan": (
                sample(cache, cache, cache="plan", event="hit"),
                sample(cache, cache, cache="plan", event="miss"),
                0.0,
            ),
            "result": (
                sample(cache, cache, cache="result", event="hit"),
                sample(cache, cache, cache="result", event="miss"),
                sample(cache, cache, cache="result", event="invalidation"),
            ),
            "pool_wait_s": sample(wait, wait + "_sum"),
            "pool_waits": sample(wait, wait + "_count"),
        }

    def peak_rss_mb(self) -> float:
        """The server child's peak; known once it has been reaped."""
        self.stop_server()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, log: Log) -> list[float]:
        """Every hot statement and a seeded sample of the cold ones:
        the cold stream never repeats, and sqlite needs 20–50 ms for
        each of its statements, so checking all of them would take
        longer than the run."""
        hot = {k: v for k, v in log.first.items() if v[0].sql in HOT_STATEMENTS}
        cold = sorted(k for k in log.first if k not in hot)
        rng = random.Random(f"{self.seed}/checked")
        for key in rng.sample(cold, min(self.COLD_CHECKED, len(cold))):
            hot[key] = log.first[key]
        return check_statements(self.database, log, hot)

    def stop_server(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.process is None:
            return
        try:
            self.pipe.send("stop")
        except OSError:
            pass
        self.process.join(timeout=30)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.pipe.close()
        self.process = None

    def close(self) -> None:
        self.stop_server()
        super().close()


WORKLOADS = {
    cls.name: cls for cls in (AggAdhoc, AggPrepared, OrdEnum, MixedRW, ServedHTTP)
}
