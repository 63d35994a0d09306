"""repro.ivm — incremental view maintenance for factorised databases.

The write path of the library.  Databases become mutable through
immutable :class:`Delta` batches (:mod:`repro.ivm.delta`); registered
factorisations are kept fresh by routing each delta to the f-tree
branches owned by the touched relation and splicing the sorted unions
locally (:mod:`repro.ivm.maintain`), falling back to a recorded rebuild
when a change genuinely violates the f-tree's independence assumptions.
Each change is logged per view as a :class:`ViewDelta`: its inserted
and deleted halves as factorisations sharing the view's fragments,
whose rows are enumerated only when a consumer reads them.
:class:`LiveView` (:mod:`repro.ivm.view`) maintains aggregate query
results on top of the database's change log, folding each change's γ
components — from the engine's own plan, run on the factorised halves
of a view's delta — into its groups.

Quickstart::

    from repro import Delta, connect
    from repro.data.pizzeria import pizzeria_database

    session = connect(pizzeria_database())
    live = session.watch(
        session.query("R").group_by("customer").sum("price", "revenue")
    )
    session.apply(Delta.insert("Orders", [("Lucia", "Monday", "Margherita")]))
    print(live.result.pretty())        # fresh, no recomputation
    print(live.result.explain())       # MaintenanceStats evidence
"""

from repro.ivm.delta import Delta, DeltaError, Deletion, Insertion
from repro.ivm.maintain import IndependenceViolation, ViewDelta, contributors
from repro.ivm.stats import MaintenanceStats
from repro.ivm.view import LiveView

__all__ = [
    "Delta",
    "DeltaError",
    "Deletion",
    "IndependenceViolation",
    "Insertion",
    "LiveView",
    "MaintenanceStats",
    "ViewDelta",
    "contributors",
]
