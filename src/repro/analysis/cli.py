"""``python -m repro analyze`` — run the static-analysis suite.

Three passes, each skippable:

1. **Lint** the source tree (default: the installed ``repro`` package)
   with the repo-specific rules of :mod:`repro.analysis.linter`.
2. **Verify views**: every registered factorisation of the workload
   database is checked against the §2 f-tree invariants and its
   schema partition.
3. **Verify plans**: every FULL_WORKLOAD query is compiled (greedy
   and cost-based optimisers; ``--exhaustive`` adds the exhaustive
   one), its f-plan replayed under the operator pre/post-conditions,
   and its expression AST type-checked.

Exit status 0 when no error-severity findings; 1 otherwise (warnings
are printed but do not fail the run).  ``--json PATH`` writes the full
findings report in the common JSON format — the CI artifact.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.findings import Finding, Report


def _default_lint_path() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _lint_pass(args: argparse.Namespace, report: Report) -> None:
    from repro.analysis.linter import lint_paths

    paths = [Path(p) for p in args.paths] or [_default_lint_path()]
    findings = lint_paths(paths)
    report.extend(findings)
    named = ", ".join(str(p) for p in paths)
    print(f"lint: {len(findings)} finding(s) over {named}")


def _verify_pass(args: argparse.Namespace, report: Report) -> None:
    from repro.analysis.typecheck import check_query_types
    from repro.analysis.verifier import verify_compiled, verify_ftree
    from repro.core.engine import FDBEngine
    from repro.data.workloads import FULL_WORKLOAD, build_workload_database
    from repro.query import QueryError

    database = build_workload_database(scale=args.scale)

    views = 0
    for name in database.names():
        registered = database.get_factorised(name)
        if registered is None:
            continue
        views += 1
        report.extend(
            verify_ftree(
                registered.ftree,
                subject=f"view:{name}",
                schema=database.schema(name),
            )
        )
    print(f"verify: {views} registered view(s) checked")

    optimizers = ["greedy", "cost"]
    if args.exhaustive:
        optimizers.append("exhaustive")
    checked = 0
    for key, workload in sorted(FULL_WORKLOAD.items()):
        query = workload.query
        report.extend(
            check_query_types(query, database, subject=f"query:{key}")
        )
        for optimizer in optimizers:
            subject = f"plan:{key}:{optimizer}"
            engine = FDBEngine(optimizer=optimizer)
            try:
                compiled = engine.compile(query, database)
            except QueryError as error:
                report.findings.append(
                    Finding(
                        "plan/step-failed",
                        f"compilation failed: {error}",
                        subject=subject,
                    )
                )
                continue
            report.extend(verify_compiled(compiled, subject=subject))
            checked += 1
    print(
        f"verify: {checked} plan(s) over {len(FULL_WORKLOAD)} workload "
        f"query(ies) ({'+'.join(optimizers)})"
    )


def run_analyze(args: argparse.Namespace) -> int:
    """The ``analyze`` subcommand handler; returns the exit status."""
    report = Report([])
    if not args.skip_lint:
        _lint_pass(args, report)
    if not args.skip_plans:
        _verify_pass(args, report)
    if args.json:
        Path(args.json).write_text(report.to_json(), encoding="utf-8")
        print(f"findings report written to {args.json}")
    if report.findings:
        print()
        print(report.describe())
    else:
        print("analyze: clean — no findings")
    return 0 if report.clean else 1


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``analyze`` options on a subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json", default="", help="write the JSON findings report here"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload scale for view/plan verification (default 0.25)",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="also verify plans from the exhaustive optimiser",
    )
    parser.add_argument(
        "--skip-lint", action="store_true", help="skip the source lint"
    )
    parser.add_argument(
        "--skip-plans",
        action="store_true",
        help="skip view and workload-plan verification",
    )
