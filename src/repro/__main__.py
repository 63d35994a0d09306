"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    Regenerate every evaluation figure (Section 6) and print the tables
    (``--quick``: scale 0.1, sweeps over 0.1 and 0.2, one repeat;
    ``--output`` writes the measurements as CSV and JSON).
``sizes``
    The representation-size study only (fast).
``query SQL``
    Run a SQL query on the generated workload database and report
    times (``--scale`` selects the dataset size, ``--engine`` picks one
    registered engine or ``all``).
``explain SQL``
    Show the chosen engine's plan for a SQL query (``--engine``,
    default ``fdb``: the f-plan with cost bounds).
``advise``
    Rank candidate f-trees for the Section 6 view by the size-bound
    cost metric.
``serve``
    Boot the concurrent HTTP/JSON server over the generated workload
    database (``--port``, ``--pool-size``, ``--engine``); see
    :mod:`repro.server`.
``analyze``
    Run the static-analysis suite: the repo-specific linter over the
    source tree plus semantic verification of every registered view
    and the FULL_WORKLOAD plan corpus (``--json`` writes the findings
    report); see :mod:`repro.analysis`.
``metrics``
    Scrape and pretty-print a live server's ``/metrics`` endpoint
    (``--url``), or run a sample workload locally and print the
    process registry; see :mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import sys


def _build_db(scale: float):
    from repro.data.workloads import build_workload_database

    return build_workload_database(scale=scale)


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import experiments

    quick = {"scale": 0.1, "scales": (0.1, 0.2), "repeats": 1}
    reports = experiments.run_all(**(quick if args.quick else {}))
    if args.output:
        from repro.bench.reporting import save_reports

        csv_path, json_path = save_reports(reports, args.output)
        print(f"results written to {csv_path} and {json_path}")
    return 0


def cmd_sizes(args: argparse.Namespace) -> int:
    from repro.bench.experiments import run_sizes

    print(run_sizes(scales=args.scales).table)
    return 0


def _check_engine(name: str, extra: tuple[str, ...] = ()) -> int:
    """0 if ``name`` is registered (or in ``extra``), else 2 + message.

    Validation delegates to ``create_engine`` (case-insensitive, emits a
    did-you-mean suggestion) so it happens before the database is built.
    """
    if name in extra:
        return 0
    from repro.api import create_engine

    try:
        create_engine(name)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.api import available_engines, connect
    from repro.sql import parse_query

    if _check_engine(args.engine, extra=("all",)):
        return 2
    session = connect(_build_db(args.scale))
    query = parse_query(args.sql)
    engines = (
        available_engines() if args.engine == "all" else (args.engine,)
    )
    result = None
    for name in engines:
        result = session.execute(query, engine=name)
        print(
            f"{result.engine:<10} {result.seconds * 1000:8.1f} ms  "
            f"{len(result)} rows"
        )
    print()
    print(result.pretty(limit=args.rows))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.api import connect
    from repro.sql import parse_query

    if _check_engine(args.engine):
        return 2
    session = connect(_build_db(args.scale))
    print(session.explain(parse_query(args.sql), engine=args.engine))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import advise
    from repro.core.cost import Hypergraph

    hypergraph = Hypergraph(
        {
            "Orders": ("customer", "date", "package"),
            "Packages": ("package", "item"),
            "Items": ("item", "price"),
        }
    )
    ranked = advise(
        ("customer", "date", "package", "item", "price"),
        hypergraph,
        top=args.top,
    )
    for index, candidate in enumerate(ranked, 1):
        print(f"#{index}: {candidate.describe()}")
        print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import serve

    if _check_engine(args.engine):
        return 2
    database = _build_db(args.scale)
    serve(
        database,
        host=args.host,
        port=args.port,
        engine=args.engine,
        pool_size=args.pool_size,
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_analyze

    return run_analyze(args)


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import parse_prometheus, render_prometheus

    if args.url:
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/metrics"
        with urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        if args.raw:
            print(text, end="")
            return 0
        families = parse_prometheus(text)
        for name in sorted(families):
            family = families[name]
            print(f"{name} ({family['kind']}): {family['help']}")
            for (series, labels), value in sorted(family["samples"].items()):
                label_text = (
                    "{" + ", ".join(f"{k}={v}" for k, v in labels) + "}"
                    if labels
                    else ""
                )
                print(f"  {series}{label_text} = {value}")
        return 0
    # No server to scrape: run a small sample workload so the local
    # registry has something to show, then print the exposition.
    from repro.api import connect
    from repro.sql import parse_query

    session = connect(_build_db(args.scale))
    query = parse_query(
        "SELECT customer, SUM(price) AS revenue "
        "FROM Orders, Packages, Items "
        "GROUP BY customer ORDER BY revenue"
    )
    for _ in range(3):
        session.execute(query, engine="fdb")
    print(render_prometheus(), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Factorised-database reproduction (VLDB 2013) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="run every figure's experiment"
    )
    experiments.add_argument(
        "--output",
        default="",
        help="directory to write results.csv / results.json into",
    )
    experiments.add_argument(
        "--quick",
        action="store_true",
        help="smoke run: scale 0.1, sweeps over 0.1 and 0.2, one repeat",
    )

    sizes = sub.add_parser("sizes", help="representation-size study")
    sizes.add_argument(
        "--scales",
        type=lambda text: [float(x) for x in text.split(",")],
        default=[0.25, 0.5, 1.0],
    )

    # Engine names are validated inside the handlers (against the live
    # registry) so building the parser stays import-light for the other
    # commands.
    query = sub.add_parser("query", help="run a SQL query on engines")
    query.add_argument("sql")
    query.add_argument("--scale", type=float, default=0.5)
    query.add_argument("--rows", type=int, default=10)
    query.add_argument(
        "--engine",
        default="all",
        help="registered engine name (fdb, rdb, sqlite, ...) or 'all' "
        "(the default)",
    )

    explain = sub.add_parser("explain", help="show an engine's plan")
    explain.add_argument("sql")
    explain.add_argument("--scale", type=float, default=0.25)
    explain.add_argument(
        "--engine",
        default="fdb",
        help="engine whose plan to show (default: fdb)",
    )

    advise_cmd = sub.add_parser("advise", help="rank f-trees for the view")
    advise_cmd.add_argument("--top", type=int, default=3)

    serve_cmd = sub.add_parser(
        "serve", help="serve the workload database over HTTP"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8128)
    serve_cmd.add_argument("--scale", type=float, default=0.5)
    serve_cmd.add_argument("--pool-size", type=int, default=8)
    serve_cmd.add_argument(
        "--engine",
        default="fdb",
        help="engine pooled sessions run on (default: fdb)",
    )

    analyze_cmd = sub.add_parser(
        "analyze", help="lint the source tree and verify views/plans"
    )
    from repro.analysis.cli import add_arguments as add_analyze_arguments

    add_analyze_arguments(analyze_cmd)

    metrics_cmd = sub.add_parser(
        "metrics", help="scrape /metrics, or print the local registry"
    )
    metrics_cmd.add_argument(
        "--url",
        default="",
        help="base URL of a running repro server (e.g. http://127.0.0.1:8128)",
    )
    metrics_cmd.add_argument(
        "--raw",
        action="store_true",
        help="print the scraped exposition verbatim instead of parsing it",
    )
    metrics_cmd.add_argument("--scale", type=float, default=0.25)

    args = parser.parse_args(argv)
    handlers = {
        "experiments": cmd_experiments,
        "sizes": cmd_sizes,
        "query": cmd_query,
        "explain": cmd_explain,
        "advise": cmd_advise,
        "serve": cmd_serve,
        "analyze": cmd_analyze,
        "metrics": cmd_metrics,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
