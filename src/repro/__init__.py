"""repro — reproduction of *Aggregation and Ordering in Factorised Databases*.

Bakibayev, Kočiský, Olteanu, Závodný (VLDB 2013, arXiv:1307.0441).

The package provides:

- :mod:`repro.core` — factorised databases: f-trees, factorised
  representations, the γ aggregation operator, restructuring operators,
  constant-delay (ordered) enumeration, cost model, query optimisers,
  and the FDB engine;
- :mod:`repro.relational` — the flat relational substrate and RDB
  baseline engine;
- :mod:`repro.sql` — a SQL front-end compiling to the shared query AST;
- :mod:`repro.data` — the paper's example database and the synthetic
  scaled workload generator of Section 6;
- :mod:`repro.bench` — the paper's evaluation tables (Figures 4–8, the
  size and optimiser studies), timing engines from the registry
  (``python -m repro experiments``).

- :mod:`repro.api` — the unified session API: ``connect``/``Session``,
  the fluent ``QueryBuilder``, the engine registry, and the ``Result``
  object;
- :mod:`repro.server` — concurrent server mode: ``SessionPool`` for
  snapshot-isolated session multiplexing and an asyncio HTTP/JSON
  front-end (``serve``/``Server``/``Client``);
- :mod:`repro.obs` — observability: a mergeable metrics registry,
  hierarchical query spans, Prometheus text exposition, and the
  slow-query log (``REPRO_OBS=0`` disables it all).

Quickstart::

    from repro import Relation, connect

    session = connect(Relation(("a", "b"), [(1, 10), (1, 20), (2, 30)], "R"))
    result = (session.query("R")
              .group_by("a")
              .sum("b", "total")
              .run())
    print(result.pretty())
    print(result.plan)   # the f-plan that produced the result
"""

import logging as _logging

from repro.database import Database
from repro.expr import Attr, BinOp, Const, Expr, Neg, Param, col, lit, param
from repro.query import (
    AggregateSpec,
    Comparison,
    ComputedColumn,
    Equality,
    Having,
    Query,
    QueryError,
    aggregate,
)
from repro.relational.relation import Relation
from repro.relational.sort import SortKey

__version__ = "1.0.0"

# Library logging convention: the "repro.*" hierarchy stays silent
# unless the application configures handlers (PEP 282 / logging HOWTO).
if not _logging.getLogger("repro").handlers:  # pragma: no branch
    _logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = [
    "AggregateSpec",
    "Attr",
    "BinOp",
    "Comparison",
    "ComputedColumn",
    "Const",
    "Database",
    "Delta",
    "Deletion",
    "Engine",
    "Equality",
    "Expr",
    "FDBEngine",
    "Having",
    "Insertion",
    "LiveView",
    "MaintenanceStats",
    "Neg",
    "Param",
    "PreparedQuery",
    "Query",
    "QueryBuilder",
    "QueryError",
    "RDBEngine",
    "Relation",
    "Result",
    "Server",
    "Session",
    "SessionClosedError",
    "SessionPool",
    "Snapshot",
    "SnapshotError",
    "SortKey",
    "aggregate",
    "available_engines",
    "col",
    "connect",
    "lit",
    "param",
    "register_engine",
    "serve",
    "__version__",
]

# Engines and the session API are imported lazily to keep the import
# graph acyclic (repro.core modules import the relational substrate;
# repro.api imports both engines).
_LAZY_ATTRIBUTES = {
    "FDBEngine": ("repro.core.engine", "FDBEngine"),
    "RDBEngine": ("repro.relational.engine", "RDBEngine"),
    "Engine": ("repro.api", "Engine"),
    "PreparedQuery": ("repro.api", "PreparedQuery"),
    "QueryBuilder": ("repro.api", "QueryBuilder"),
    "Result": ("repro.api", "Result"),
    "Session": ("repro.api", "Session"),
    "SessionClosedError": ("repro.api", "SessionClosedError"),
    "available_engines": ("repro.api", "available_engines"),
    "connect": ("repro.api", "connect"),
    "register_engine": ("repro.api", "register_engine"),
    "Delta": ("repro.ivm", "Delta"),
    "Deletion": ("repro.ivm", "Deletion"),
    "Insertion": ("repro.ivm", "Insertion"),
    "LiveView": ("repro.ivm", "LiveView"),
    "MaintenanceStats": ("repro.ivm", "MaintenanceStats"),
    "Server": ("repro.server", "Server"),
    "SessionPool": ("repro.server", "SessionPool"),
    "Snapshot": ("repro.database", "Snapshot"),
    "SnapshotError": ("repro.database", "SnapshotError"),
    "serve": ("repro.server", "serve"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_ATTRIBUTES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    value = getattr(import_module(module_name), attribute)
    globals()[name] = value  # cache so later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    # Without this, dir(repro) misses the lazily-provided names above.
    return sorted(set(globals()) | set(__all__))
