"""Per-shard copies of a database, kept fresh under deltas.

A :class:`ShardStore` hash-partitions every view of a database into N
disjoint shard databases.  Views registered with a factorisation get a
*per-shard* factorisation (built concurrently when workers allow, see
:func:`build_shard_factorisations`), so shard queries run on prepared
representations exactly like the unsharded FDB path does — the paper's
read-optimised scenario, horizontally partitioned.

Stores stay consistent under mutation without rebuilding: the engine
forwards the database's logged row deltas here, and :meth:`forward`
routes each row to its owning shard by the partition key, updating the
shard's flat rows and splicing its factorisation directly (the same
``direct_insert``/``direct_delete`` machinery the IVM subsystem uses).
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.build import factorise
from repro.database import Database, _path_fallback_tree
from repro.relational.relation import Relation
from repro.shard.partition import choose_partition_key, partition_relation, shard_of

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.frep import Factorisation
    from repro.core.ftree import FTree
    from repro.database import LogRecord


def refactorise_shard(relation: Relation, ftree: "FTree") -> "Factorisation":
    """Factorise one shard slice over the view's f-tree.

    Partitioning on the root attribute preserves the tree's join
    dependencies (each shard is a union of whole root subtrees), but a
    caller-chosen key may not: when the slice no longer satisfies the
    dependencies, fall back to the always-valid path f-tree — keeping
    the relation keys so delta routing continues to work (see
    ``_path_fallback_tree``: the path claims no independence).
    """
    fact = factorise(relation, ftree)
    if fact.tuple_count() == len(set(relation.rows)):
        return fact
    return factorise(relation, _path_fallback_tree(ftree))


def build_shard_factorisations(
    jobs: Sequence[tuple[Relation, "FTree"]], workers: int
) -> list["Factorisation"]:
    """One factorisation per (shard slice, f-tree) job.

    With ``workers > 1`` the builds run concurrently through
    ``concurrent.futures`` (a process pool when the platform forks,
    else threads); ``workers <= 1`` is the deterministic sequential
    fallback.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [refactorise_shard(relation, ftree) for relation, ftree in jobs]
    with _build_pool(min(workers, len(jobs))) as pool:
        futures = [
            pool.submit(refactorise_shard, relation, ftree)
            for relation, ftree in jobs
        ]
        return [future.result() for future in futures]


def _build_pool(workers: int) -> Executor:
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    return ThreadPoolExecutor(max_workers=workers)


class ShardStore:
    """N disjoint shard databases covering one source database.

    Attributes
    ----------
    databases:
        one :class:`repro.database.Database` per shard;
    keys:
        partition attribute per view name;
    counts:
        rows per shard per view name (surfaced by ``explain``);
    generation:
        bumped on every forwarded delta — executors fork a snapshot of
        the store, so a generation change invalidates worker pools.
    """

    def __init__(
        self,
        database: Database,
        shards: int,
        key: str | None = None,
        workers: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be at least 1, got {shards}")
        self.shards = shards
        self.generation = 0
        self.splices = 0
        self.local_rebuilds = 0
        self.keys: dict[str, str] = {}
        self.counts: dict[str, list[int]] = {}
        self.databases: list[Database] = [Database() for _ in range(shards)]
        jobs: list[tuple[int, str, Relation, "FTree"]] = []
        for name in database.names():
            partition_key = choose_partition_key(database, name, key)
            self.keys[name] = partition_key
            parts = partition_relation(database.flat(name), partition_key, shards)
            self.counts[name] = [len(part.rows) for part in parts]
            registered = database.get_factorised(name)
            for index, part in enumerate(parts):
                self.databases[index].add_relation(part, name=name)
                if registered is not None:
                    jobs.append((index, name, part, registered.ftree))
        built = build_shard_factorisations(
            [(part, ftree) for _, _, part, ftree in jobs], workers
        )
        for (index, name, _, _), fact in zip(jobs, built):
            self.databases[index].add_factorised(name, fact)

    # ------------------------------------------------------------------
    # Delta forwarding
    # ------------------------------------------------------------------
    def forward(self, records: Iterable["LogRecord"]) -> bool:
        """Route logged row deltas to their owning shards.

        Mirrors the sqlite backend's replay contract: registrations and
        rebuilt views are not expressible as row deltas and return
        False, telling the caller to rebuild the whole store.  Row
        deltas always succeed — each row reaches exactly the shard
        owning its partition-key value, where the factorisation is
        spliced directly when the f-tree allows, and *that one shard's*
        copy of the view is re-factorised from its (already updated)
        flat rows when it does not.  Maintenance work therefore stays
        local to the owning shard either way.
        """
        records = list(records)
        for record in records:
            if record.kind == "register":
                return False
            if record.relation not in self.keys:
                return False
            for delta in record.view_deltas.values():
                if delta.rebuilt or delta.name not in self.keys:
                    return False
        for record in records:
            insert = record.kind == "insert"
            self._apply(record.relation, record.columns, record.rows, insert)
            for delta in record.view_deltas.values():
                if delta.name == record.relation:
                    continue  # the base replay above already covered it
                self._apply(delta.name, delta.schema, delta.added, True)
                self._apply(delta.name, delta.schema, delta.removed, False)
        self.generation += 1
        return True

    def _apply(
        self,
        name: str,
        columns: Sequence[str],
        rows: Sequence[tuple],
        insert: bool,
    ) -> None:
        from repro.ivm.delta import DeltaError
        from repro.ivm.maintain import (
            IndependenceViolation,
            _Splice,
            direct_delete,
            direct_insert,
        )

        if not rows:
            return
        columns = list(columns)
        key_position = columns.index(self.keys[name])
        routed: dict[int, list[tuple]] = {}
        for row in rows:
            owner = shard_of(row[key_position], self.shards)
            routed.setdefault(owner, []).append(row)
        for index, bucket in routed.items():
            shard_db = self.databases[index]
            relation = shard_db.relations[name]
            positions = [columns.index(a) for a in relation.schema]
            ordered = [tuple(row[p] for p in positions) for row in bucket]
            if insert:
                present = set(relation.rows)
                ordered = [row for row in ordered if row not in present]
                # repro: allow[cow-mutation] -- shard-slice relations
                # are owned solely by this store (never published to
                # snapshot readers); in-place routing is the delta
                # fast path.
                relation.rows.extend(ordered)
            else:
                doomed = set(ordered)
                ordered = [row for row in relation.rows if row in doomed]
                # repro: allow[cow-mutation] -- same: store-private slice.
                relation.rows = [
                    row for row in relation.rows if row not in doomed
                ]
            self.counts[name][index] = len(relation.rows)
            fact = shard_db.factorised.get(name)
            if fact is None or not ordered:
                continue
            splice = _Splice()
            try:
                if insert:
                    fact = direct_insert(fact, ordered, relation.schema, splice)
                else:
                    fact = direct_delete(fact, ordered, relation.schema, splice)
                self.splices += 1
            except (IndependenceViolation, DeltaError):
                # The direct splice would break the f-tree's independence
                # assumptions (e.g. a one-row insert cross-multiplying
                # sibling branches): re-factorise this one shard's slice
                # of the view from its updated flat rows.
                fact = refactorise_shard(relation, fact.ftree)
                self.local_rebuilds += 1
            shard_db.factorised[name] = fact

    def __repr__(self) -> str:
        views = ", ".join(
            f"{name}@{key}" for name, key in sorted(self.keys.items())
        )
        return f"ShardStore(shards={self.shards}, views=[{views}])"
