"""Statistics collectors: structure walks and sampling.

The cheap path reads resident factorised state: every union's value
array is sorted and duplicate-free, so ``len(values)`` *is* the
per-union distinct count and one dict pass over the arrays yields exact
global distinct counts and context frequencies without enumerating a
single tuple.  Cardinality comes from ``tuple_count()`` (a dynamic
program over union lengths) and the footprint from ``size_info()`` —
all structure walks, no data scan.

Relations with no factorisation fall back to one bounded sampling pass
over the flat rows.  Seeds are republished to the ``repro.obs``
registry for operators (``publish_stats``).
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import metrics
from repro.relational.relation import Relation
from repro.stats.model import HISTOGRAM_WIDTH, AttributeStats, RelationStats

# Flat fallback: stride-sample at most this many rows in one pass.
FLAT_SAMPLE_LIMIT = 4096

# Gauges holding each relation's last seed, for operators; they cross
# the shard fork boundary with the metrics merge protocol.
_STATS_ROWS = metrics().gauge(
    "repro_stats_relation_rows",
    "Cardinality recorded at the last statistics seed, per relation.",
    ("db", "relation"),
)
_STATS_DISTINCT = metrics().gauge(
    "repro_stats_attribute_distinct",
    "Distinct count recorded at the last statistics seed.",
    ("db", "relation", "attribute"),
)
_STATS_VERSION = metrics().gauge(
    "repro_stats_seed_version",
    "Database version the last statistics seed was taken at.",
    ("db", "relation"),
)


def _top_k(counts: "dict[Any, int]") -> "tuple[tuple, bool]":
    """The histogram pair ``(top-K (value, count), complete)``."""
    top = sorted(counts.items(), key=lambda item: (-item[1], repr(item[0])))
    return tuple(top[:HISTOGRAM_WIDTH]), len(top) <= HISTOGRAM_WIDTH


def stats_from_factorisation(name: str, fact) -> RelationStats:
    """Exact statistics from a resident factorisation — no data scan.

    Walks the union *structure* only: because values within a union are
    sorted and distinct, the dict of value → context count built from
    the value arrays gives exact global distinct counts (its length)
    and a context-frequency histogram (how many parent contexts a value
    appears under — the skew signal that drives selection placement).
    """
    attributes: dict[str, AttributeStats] = {}
    nesting: dict[str, tuple] = {}

    def walk(node, unions: list, above: tuple = ()) -> None:
        above += (node.name,)
        nesting.update(dict.fromkeys(node.attributes, above))
        if not node.is_aggregate and node.attributes:
            counts: dict[Any, int] = {}
            for union in unions:
                for value in union.values:
                    counts[value] = counts.get(value, 0) + 1
            histogram, complete = _top_k(counts)
            entry = AttributeStats(
                distinct=len(counts),
                total=sum(counts.values()),
                histogram=histogram,
                complete=complete,
            )
            for attribute in node.attributes:
                attributes[attribute] = entry
        for index, child in enumerate(node.children):
            gathered: list = []
            for union in unions:
                gathered.extend(union.children[index])
            walk(child, gathered, above)

    for node, union in zip(fact.ftree.roots, fact.roots):
        walk(node, [union])
    singletons, resident_bytes = fact.size_info()
    return RelationStats(
        name=name,
        rows=fact.tuple_count(),
        attributes=attributes,
        source="columnar",
        singletons=singletons,
        resident_bytes=resident_bytes,
        nesting=nesting,
    )


def stats_from_flat(
    name: str, relation: Relation, limit: int = FLAT_SAMPLE_LIMIT
) -> RelationStats:
    """One bounded sampling pass over a flat relation.

    Up to ``limit`` rows are visited (stride-sampled beyond that);
    distinct counts observed in a strict sample are lower bounds and the
    histogram is marked incomplete.
    """
    rows = relation.rows
    stride = max(1, len(rows) // limit) if limit else 1
    sampled = rows[::stride] if stride > 1 else rows
    exact = len(sampled) == len(rows)
    per_column: "list[dict[Any, int]]" = [{} for _ in relation.schema]
    for row in sampled:
        for counts, value in zip(per_column, row):
            counts[value] = counts.get(value, 0) + 1
    attributes: dict[str, AttributeStats] = {}
    for attribute, counts in zip(relation.schema, per_column):
        histogram, covered = _top_k(counts)
        attributes[attribute] = AttributeStats(
            distinct=len(counts),
            total=len(sampled),
            histogram=histogram,
            complete=exact and covered,
        )
    return RelationStats(
        name=name,
        rows=len(rows),
        attributes=attributes,
        source="flat",
    )


# ---------------------------------------------------------------------------
# Metrics-registry bridge
# ---------------------------------------------------------------------------
def publish_stats(origin, version: int, stats: RelationStats) -> None:
    """Record a seed in the metrics registry (for operators)."""
    token = str(origin.token)
    _STATS_ROWS.labels(token, stats.name).set(float(stats.rows))
    _STATS_VERSION.labels(token, stats.name).set(float(version))
    for attribute, entry in stats.attributes.items():
        _STATS_DISTINCT.labels(token, stats.name, attribute).set(
            float(entry.distinct)
        )
