"""Statistics collectors: structure walks and sampling.

The cheap path reads resident factorised state: every union's value
array is sorted and duplicate-free, so ``len(values)`` *is* the
per-union distinct count and one pass over the arrays yields exact
global distinct counts without enumerating a single tuple.
Cardinality comes from ``tuple_count()`` (a dynamic program over union
lengths) and the footprint from ``size_info()`` — all structure walks,
no data scan.

Relations with no factorisation fall back to one bounded sampling pass
over the flat rows.  Seeds are republished to the ``repro.obs``
registry for operators (``publish_stats``).
"""

from __future__ import annotations

from repro.obs.metrics import metrics
from repro.relational.relation import Relation
from repro.stats.model import AttributeStats, RelationStats

# Flat fallback: stride-sample at most this many rows in one pass.
FLAT_SAMPLE_LIMIT = 4096

# Gauges holding each relation's last seed, for operators.
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


def stats_from_factorisation(name: str, fact) -> RelationStats:
    """Exact statistics from a resident factorisation — no data scan.

    Walks the union *structure* only: because values within a union are
    sorted and distinct, the set of the value arrays' entries gives the
    exact global distinct count, and their lengths sum to the number of
    contexts the attribute's values appear under.
    """
    attributes: dict[str, AttributeStats] = {}
    nesting: dict[str, tuple] = {}
    for node, union in zip(fact.ftree.roots, fact.roots):
        _walk(node, [union], (), attributes, nesting)
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


def _walk(
    node, unions: list, above: tuple, attributes: dict, nesting: dict
) -> None:
    """Record ``node``'s subtree over all its ``unions`` (a module
    function: a self-calling closure is a reference cycle)."""
    above += (node.name,)
    nesting.update(dict.fromkeys(node.attributes, above))
    if not node.is_aggregate and node.attributes:
        seen: set = set()
        for union in unions:
            seen.update(union.values)
        entry = AttributeStats(
            distinct=len(seen),
            total=sum(len(union.values) for union in unions),
        )
        for attribute in node.attributes:
            attributes[attribute] = entry
    for index, child in enumerate(node.children):
        gathered: list = []
        for union in unions:
            gathered.extend(union.children[index])
        _walk(child, gathered, above, attributes, nesting)


def stats_from_flat(
    name: str, relation: Relation, limit: int = FLAT_SAMPLE_LIMIT
) -> RelationStats:
    """One bounded sampling pass over a flat relation.

    Up to ``limit`` rows are visited (stride-sampled beyond that);
    distinct counts observed in a strict sample are lower bounds.
    """
    rows = relation.rows
    stride = max(1, len(rows) // limit) if limit else 1
    sampled = rows[::stride] if stride > 1 else rows
    columns = zip(*sampled) if sampled else ([] for _ in relation.schema)
    attributes = {
        attribute: AttributeStats(distinct=len(set(values)), total=len(sampled))
        for attribute, values in zip(relation.schema, columns)
    }
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
