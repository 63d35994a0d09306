"""Unit tests for factorised representations."""

import pytest

from repro.core.build import factorise, factorise_path
from repro.core.frep import (
    CUnion,
    Factorisation,
    FactorisationError,
    empty_cunion,
    empty_like,
    singleton_cunion,
)
from repro.core.ftree import build_ftree, path_ftree
from repro.relational.relation import Relation


@pytest.fixture()
def example3():
    """Example 3: R = {◇,♣} × {1,2,3} factorised two ways."""
    relation = Relation(
        ("A", "B"),
        [(a, b) for a in ("c", "d") for b in (1, 2, 3)],
    )
    tree = build_ftree(["A", "B"], keys={"A": {"r1"}, "B": {"r2"}})
    return relation, factorise(relation, tree)


def test_example3_product_factorisation_size(example3):
    relation, fact = example3
    # E2 = (union of 2 singletons) × (union of 3) = 5 singletons,
    # versus 12 singletons in the trivial union-of-products form E1.
    assert fact.size() == 5
    assert fact.tuple_count() == 6
    assert len(relation) * len(relation.schema) == 12


def test_flatten_reproduces_relation(example3):
    relation, fact = example3
    assert fact.to_relation() == relation


def test_schema_preorder(example3):
    _, fact = example3
    assert fact.schema() == ["A", "B"]


def test_iter_tuples_no_order(example3):
    _, fact = example3
    assert sorted(fact.iter_tuples()) == sorted(
        (a, b) for a in ("c", "d") for b in (1, 2, 3)
    )


def test_empty_like():
    tree = path_ftree(("x", "y"), "R")
    fact = empty_like(tree)
    assert fact.is_empty()
    assert fact.size() == 0
    assert list(fact.iter_tuples()) == []


def test_root_count_must_match():
    tree = path_ftree(("x",), "R")
    with pytest.raises(FactorisationError):
        Factorisation(tree, [empty_cunion(0), empty_cunion(0)])


def test_validate_sorted_ok():
    fact = factorise_path(Relation(("x",), [(2,), (1,), (3,)]), "R")
    fact.validate()  # does not raise


def test_validate_detects_unsorted():
    tree = path_ftree(("x",), "R")
    fact = Factorisation(tree, [CUnion([2, 1])])
    with pytest.raises(FactorisationError):
        fact.validate()


def test_validate_detects_duplicates():
    tree = path_ftree(("x",), "R")
    fact = Factorisation(tree, [CUnion([1, 1])])
    with pytest.raises(FactorisationError):
        fact.validate()


def test_validate_detects_misaligned_children():
    tree = path_ftree(("x", "y"), "R")
    fact = Factorisation(tree, [CUnion([1])])  # missing child fragment
    with pytest.raises(FactorisationError):
        fact.validate()


def test_equivalence_class_values_repeat():
    tree = build_ftree([(("a", "b"), [])], keys={"a": {"r"}})
    fact = Factorisation(tree, [singleton_cunion(7)])
    assert list(fact.iter_tuples()) == [(7, 7)]
    assert fact.schema() == ["a", "b"]


def test_tuple_count_multiplies_products():
    tree = build_ftree(["a", "b"], keys={"a": {"r"}, "b": {"s"}})
    fact = Factorisation(
        tree,
        [CUnion([1, 2]), CUnion([1, 2, 3])],
    )
    assert fact.tuple_count() == 6
    assert fact.size() == 5


def test_pretty_limit():
    fact = factorise_path(Relation(("x",), [(i,) for i in range(100)]), "R")
    assert "..." in fact.pretty(limit=3)


def test_repr_mentions_size(example3):
    _, fact = example3
    assert "size=5" in repr(fact)


# ---------------------------------------------------------------------------
# Size accounting: shared fragments are walked once, counted per occurrence
# ---------------------------------------------------------------------------
def _naive_size_info(fact):
    """The accounting walk without the identity memo: every occurrence
    of a shared fragment is visited again."""
    from sys import getsizeof

    ptr, lst, tup = 8, getsizeof([]), getsizeof(())
    cunion = getsizeof(CUnion([], ()))

    def walk(union):
        singles = len(union.values)
        nbytes = cunion + lst + ptr * singles + tup + ptr * len(union.children)
        for col in union.children:
            nbytes += lst + ptr * len(col)
            for sub in col:
                below = walk(sub)
                singles, nbytes = singles + below[0], nbytes + below[1]
        return singles, nbytes

    totals = [walk(union) for union in fact.roots]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


@pytest.mark.parametrize("seed", range(25))
def test_size_info_matches_naive_walk_with_shared_subtrees(seed):
    import random

    from repro.core import operators as ops

    rng = random.Random(seed)
    tree = build_ftree(
        rng.choice(
            [
                [("a", [("b", [("c", []), ("d", [])])])],
                [("a", [("b", ["c"]), ("d", [])])],
                [("a", [("b", [("c", ["d"])])])],
            ]
        )
    )
    rows = {
        tuple(rng.randrange(4) for _ in range(4)) for _ in range(rng.randrange(1, 60))
    }
    fact = factorise(Relation(("a", "b", "c", "d"), sorted(rows)), tree)
    # χ shares the fragments that do not depend on the old parent.
    for swapped in (fact, ops.swap(fact.ftree, "b").run(fact)):
        assert swapped.size_info() == _naive_size_info(swapped)
        assert swapped.size_info()[0] == swapped.size()


def test_accounting_a_swap_output_costs_less_than_the_swap():
    """χ↑date over R1 fans 33k singletons out to ~70k by sharing the
    item subtrees; accounting must not walk each occurrence again."""
    import time

    from repro.core import operators as ops
    from repro.data.workloads import build_workload_database

    view = build_workload_database(scale=1.0, seed=7).get_factorised("R1")

    def best(action):
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            result = action()
            timings.append(time.perf_counter() - started)
        return min(timings), result

    swap_seconds, swapped = best(lambda: ops.swap(view.ftree, "date").run(view))
    walk_seconds, totals = best(swapped.size_info)
    assert totals == _naive_size_info(swapped)
    assert walk_seconds < swap_seconds
