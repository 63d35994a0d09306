"""Factorised databases: the paper's primary contribution.

The subpackage implements, bottom-up:

- :mod:`repro.core.ftree` — factorisation trees (f-trees): rooted forests
  over attribute equivalence classes with dependency-key bookkeeping and
  the path constraint (Section 2.1, Proposition 1);
- :mod:`repro.core.frep` — factorised representations over f-trees:
  sorted unions of singleton values with products across children
  (Definition 1);
- :mod:`repro.core.build` — constructing the factorisation of a flat
  relation over an f-tree (materialised views as factorisations);
- :mod:`repro.core.aggregates` — aggregate attributes and the recursive
  count/sum/min/max evaluation algorithms of Section 3.2, plus the
  composition rules of Proposition 2;
- :mod:`repro.core.operators` — the f-plan operators: swap χ, merge,
  absorb, constant selection, projection, rename, product, and the new
  aggregation operator γ_F(U) of Section 3;
- :mod:`repro.core.enumerate` — constant-delay enumeration, ordered and
  grouped, with the Theorem 1/2 characterisations of Section 4;
- :mod:`repro.core.cost` — fractional edge-cover size bounds used as the
  optimisation cost metric (Section 2.1);
- :mod:`repro.core.fplan` — f-plan step representation and execution;
- :mod:`repro.core.optimizer` — the greedy heuristic of Section 5.2 and
  the exhaustive Dijkstra search of Section 5.1;
- :mod:`repro.core.engine` — the FDB query engine facade.
"""

from repro.core.ftree import AggregateAttribute, FNode, FTree, PathConstraintError
from repro.core.frep import CUnion, Factorisation

__all__ = [
    "AggregateAttribute",
    "CUnion",
    "FDBEngine",
    "FNode",
    "FTree",
    "Factorisation",
    "PathConstraintError",
]


def __getattr__(name: str):
    # The engine pulls in the optimiser stack; import it lazily so that
    # `import repro.core` stays cheap for representation-only users.
    if name == "FDBEngine":
        from repro.core.engine import FDBEngine

        return FDBEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
