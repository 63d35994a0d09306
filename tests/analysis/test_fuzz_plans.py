"""The planner/verifier contract: every emitted plan must verify clean.

A seeded sweep over the full benchmark workload (both optimisers, plus
randomly shuffled group-by/order permutations) asserting the verifier
never reports an error on a plan the planner actually produced — the
acceptance bar for wiring ``verify=True`` into the prepare path.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.analysis import verify_artifact, verify_compiled
from repro.core.engine import FDBEngine
from repro.data.workloads import FULL_WORKLOAD

OPTIMIZERS = ("greedy", "exhaustive")


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("key", sorted(FULL_WORKLOAD))
def test_workload_plans_verify_clean(key, optimizer, tiny_workload_db):
    engine = FDBEngine(optimizer=optimizer)
    query = FULL_WORKLOAD[key].query
    compiled = engine.compile(query, tiny_workload_db)
    findings = verify_compiled(compiled)
    assert errors_of(findings) == [], "\n".join(
        f.describe() for f in findings
    )


@pytest.mark.parametrize("key", sorted(FULL_WORKLOAD))
def test_workload_artifacts_verify_clean(key, tiny_workload_db):
    from repro.api.engines import FDBBackend

    backend = FDBBackend()
    query = FULL_WORKLOAD[key].query
    artifact = backend.plan(query, tiny_workload_db)
    findings = verify_artifact(query, artifact, tiny_workload_db)
    assert errors_of(findings) == [], "\n".join(
        f.describe() for f in findings
    )


def test_shuffled_variants_verify_clean(tiny_workload_db):
    """Permuted group-by/order variants still plan to verifiable trees."""
    rng = random.Random(2013)
    engine = FDBEngine(optimizer="greedy")
    checked = 0
    for key in sorted(FULL_WORKLOAD):
        query = FULL_WORKLOAD[key].query
        for _ in range(3):
            variant = query
            if len(query.group_by) > 1:
                group = list(query.group_by)
                rng.shuffle(group)
                variant = replace(variant, group_by=tuple(group))
            if len(query.order_by) > 1:
                order = list(query.order_by)
                rng.shuffle(order)
                variant = replace(variant, order_by=tuple(order))
            if variant is query:
                continue
            compiled = engine.compile(variant, tiny_workload_db)
            findings = verify_compiled(compiled)
            assert errors_of(findings) == [], "\n".join(
                f.describe() for f in findings
            )
            checked += 1
    assert checked > 0


def test_registered_views_verify_clean(tiny_workload_db):
    from repro.analysis import verify_ftree

    for name in tiny_workload_db.names():
        fact = tiny_workload_db.get_factorised(name)
        if fact is None:
            continue
        findings = verify_ftree(
            fact.ftree, subject=f"view:{name}",
            schema=tiny_workload_db.schema(name),
        )
        assert findings == [], "\n".join(f.describe() for f in findings)
