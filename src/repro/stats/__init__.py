"""Cardinality statistics for cost-based f-tree optimisation.

``repro.stats`` collects per-relation / per-attribute statistics —
cardinalities, distinct counts, a small-width histogram for skew — and
caches them across prepares behind a drift-aware epoch scheme:

- **columnar seeding**: registered factorisations expose their value
  arrays (``CUnion.values``) directly, so exact distinct counts and
  cardinalities come from array walks over resident state — no tuple
  enumeration, no sampling pass;
- **flat sampling**: relations without a factorisation fall back to one
  bounded sampling pass over the flat rows.

Every seed is also published to the ``repro.obs`` registry
(``repro_stats_*`` gauges) for operators.

The :class:`StatsCache` (process-global via :func:`stats_cache`) keys
entries like the PR 5 catalogue fingerprint (schema + registered f-tree
signature) and maintains a per-relation *epoch* that the plan-cache
fingerprint embeds: when IVM drift since seeding passes the threshold,
the epoch bumps, the stale entry drops, and the next prepare
re-optimises against fresh statistics.
"""

from repro.stats.cache import (
    DRIFT_FRACTION,
    DRIFT_MIN_ROWS,
    StatsCache,
    stats_cache,
)
from repro.stats.collect import (
    FLAT_SAMPLE_LIMIT,
    stats_from_factorisation,
    stats_from_flat,
)
from repro.stats.model import (
    HISTOGRAM_WIDTH,
    AttributeStats,
    RelationStats,
    merge_relation_stats,
)

__all__ = [
    "AttributeStats",
    "DRIFT_FRACTION",
    "DRIFT_MIN_ROWS",
    "FLAT_SAMPLE_LIMIT",
    "HISTOGRAM_WIDTH",
    "RelationStats",
    "StatsCache",
    "merge_relation_stats",
    "stats_cache",
    "stats_from_factorisation",
    "stats_from_flat",
]
