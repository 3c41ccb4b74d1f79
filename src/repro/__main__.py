"""Command-line interface.

    python -m repro sql Q6               # the SQL a paper query shreds into
    python -m repro run Q6               # run it on the Fig. 3 instance
    python -m repro run Q6 --engine parallel --stats
    python -m repro trace Q6             # traced run: the nested span tree
    python -m repro serve --port 7411    # the asyncio query service
    python -m repro serve --shard 0/4    # one slice of a sharded deployment
    python -m repro serve --data-dir ./state   # durable store (WAL + recovery)
    python -m repro supervise --shards 2 --replicas 2   # self-healing fleet
    python -m repro normal-form Q2       # show the normal form
    python -m repro figures --figure 11  # regenerate an evaluation figure

The programmatic entry point is the `repro.api` façade: `connect()` opens a
Session owning the database, plan cache and SqlOptions; the `run`
subcommand is a thin wrapper over it, and its `--engine` is that run's.
"""

from __future__ import annotations

import argparse
import sys

from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.pipeline.shredder import KNOWN_ENGINES

ALL_QUERIES = {**FLAT_QUERIES, **NESTED_QUERIES}
ENGINES = ("auto", *KNOWN_ENGINES)


def _query(name: str):
    try:
        return ALL_QUERIES[name]
    except KeyError:
        known = ", ".join(sorted(ALL_QUERIES))
        raise SystemExit(f"unknown query {name!r}; one of: {known}")


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.api import connect
    from repro.sql.codegen import SqlOptions

    options = SqlOptions(
        scheme=args.scheme,
        inline_with=args.inline_with,
        order_by_keys=args.order_by_keys,
        optimize=args.optimize,
    )
    if args.explain:
        print(_explain_sql(_query(args.query), options))
        return 0
    session = connect(schema=ORGANISATION_SCHEMA, options=options, cache=False)
    if args.json:
        import json

        payload = session.query(_query(args.query)).explain(json=True)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for path, sql in session.sql(_query(args.query)):
        print(f"-- query at path {path}")
        print(sql)
        print()
    return 0


def _explain_sql(query, options) -> str:
    """Optimised vs unoptimised SQL per package member, each with SQLite's
    EXPLAIN QUERY PLAN on the Fig. 3 instance."""
    from dataclasses import replace

    from repro.pipeline.shredder import ShreddingPipeline
    from repro.shred.packages import annotations
    from repro.sql.optimizer import statement_rule_names

    db = figure3_database()
    plain = ShreddingPipeline(
        ORGANISATION_SCHEMA, replace(options, optimize=False)
    ).compile(query)
    optimized = ShreddingPipeline(
        ORGANISATION_SCHEMA, replace(options, optimize=True)
    ).compile(query)

    def query_plan(sql: str) -> list[str]:
        rows = db.execute_sql(f"EXPLAIN QUERY PLAN {sql}")
        # (id, parent, notused, detail) with 2-space indentation per level.
        depth = {0: 0}
        lines = []
        for node_id, parent, _notused, detail in rows:
            level = depth.get(parent, 0) + 1
            depth[node_id] = level
            lines.append("  " * level + detail)
        return lines

    lines: list[str] = ["optimizer rules (SqlOptions.optimize), in order:"]
    for name, description in statement_rule_names:
        state = "fired" if name in optimized.fired_rules else "inert"
        lines.append(f"  {name:<10} [{state}] {description}")
    pairs = zip(
        annotations(plain.sql_package), annotations(optimized.sql_package)
    )
    for (path, before), (_path, after) in pairs:
        lines.append("")
        lines.append(f"== query at path {path} ==")
        lines.append("-- unoptimised")
        lines.append(before.sql)
        lines.append("   plan:")
        lines.extend(query_plan(before.sql))
        lines.append("-- optimised")
        lines.append(after.sql)
        lines.append("   plan:")
        lines.extend(query_plan(after.sql))
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import connect

    session = connect(figure3_database())
    prepared = session.query(_query(args.query))
    if args.explain:
        print(prepared.explain())
        return 0
    result = prepared.run(engine=args.engine)
    print(result.render())
    if args.stats:
        # The session's totals: this run plus the compile's cache consult.
        totals = session.stats_snapshot()
        print(
            f"-- engine={result.engine} queries={totals['queries']} "
            f"rows={totals['rows_fetched']} "
            f"millis={totals['millis']:.1f} "
            f"cache={totals['cache_hits']}h/{totals['cache_misses']}m"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import connect
    from repro.obs import render_trace

    session = connect(figure3_database())
    prepared = session.query(_query(args.query))
    result = prepared.run(engine=args.engine, trace=True)
    # The same query across a two-shard local deployment: the same
    # ``query`` span, over the coordinator's side of the run — ``route`` →
    # one ``shard`` per sub-request → the ``stitch`` of its column tables.
    from repro.api import connect_sharded
    from repro.data.organisation import organisation_placement

    with connect_sharded(
        figure3_database(), placement=organisation_placement(), shards=2
    ) as cluster:
        sharded = cluster.run(_query(args.query), trace=True)
    if args.json:
        import json

        payload = prepared.explain_payload(result.trace)
        payload["sharded_trace"] = sharded.trace.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_trace(result.trace))
    stats = result.stats
    print(
        f"-- engine={result.engine} queries={stats.queries} "
        f"rows={stats.rows_fetched} millis={stats.total_millis:.1f}"
    )
    print(render_trace(sharded.trace))
    print(f"-- 2 local shards: route={sharded.route} rows={sharded.stats.rows_fetched}")
    return 0


def _parse_shard(spec: str) -> tuple[str | int, int]:
    """Parse ``--shard i/n`` (or ``full/n``) into (index | "full", count)."""
    try:
        index_text, count_text = spec.split("/", 1)
        count = int(count_text)
        index: str | int
        if index_text == "full":
            index = "full"
        else:
            index = int(index_text)
            if not 0 <= index < count:
                raise ValueError
        if count < 1:
            raise ValueError
    except ValueError:
        raise SystemExit(
            f"--shard must look like i/n (0 ≤ i < n) or full/n, got {spec!r}"
        ) from None
    return index, count


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.api import connect
    from repro.data.generator import scaled_database
    from repro.service.protocol import OPS
    from repro.service.registry import paper_registry
    from repro.service.server import QueryServer
    from repro.shard.client import endpoint_session

    shard_label = None
    index: "str | int | None" = None
    count = 0
    if args.shard:
        index, count = _parse_shard(args.shard)
        shard_label = f"{index}/{count}"
    placement = None
    if getattr(args, "placement", ""):
        from repro.shard.placement import Placement

        placement = Placement.from_spec(args.placement)
    if args.scale:
        db = scaled_database(args.scale, seed=0, scale_rows=args.rows)
    else:
        db = figure3_database()
    if index is not None:
        # Every shard server, the full copy included, compiles under the
        # deployment's placement; a partition builds the same seeded
        # instance and keeps its slice — deterministic, no data shipping.
        if placement is None:
            from repro.data.organisation import organisation_placement

            placement = organisation_placement()
        placement = placement.validate(db.schema)
        if index != "full":
            db = db.partitioned(placement.owner_fn(count), index)
    if args.data_dir:
        from pathlib import Path

        from repro.backend.database import Database

        directory = Path(args.data_dir)
        directory.mkdir(parents=True, exist_ok=True)
        slug = (shard_label or "single").replace("/", "-of-")
        if args.replica:
            slug += f".r{args.replica}"
        # Rebuild over the on-disk store: a non-empty file wins over the
        # seed rows (crash recovery), an empty one is seeded and synced.
        seed = {ts.name: db.raw_rows(ts.name) for ts in db.schema.tables}
        db = Database(db.schema, seed, path=directory / f"shard-{slug}.sqlite")
    session = connect(db) if index is None else endpoint_session(db, placement)
    registry = paper_registry()
    server = QueryServer(
        session,
        registry,
        pool_size=args.pool,
        shard_label=shard_label,
        max_pending=args.max_pending,
        default_deadline_ms=args.deadline_ms,
    )

    exporter = None
    if args.metrics_port is not None:
        from repro.obs import MetricsHTTPServer

        exporter = MetricsHTTPServer(server.metrics, port=args.metrics_port)

    async def serve() -> None:
        host, port = await server.start(args.host, args.port)
        print(f"repro query service on {host}:{port}")
        if exporter is not None:
            print(f"  metrics : {exporter.url} (Prometheus text exposition)")
        if shard_label:
            print(f"  shard   : {shard_label} "
                  f"({db.total_rows()} rows on this shard)")
        if args.data_dir:
            state = "recovered" if db.recovered else "seeded"
            print(f"  durable : {db._path} ({state}, WAL)")
        print(f"  queries : {', '.join(registry.names())}")
        print(f"  pool    : {args.pool} read connections, "
              f"admission limit {server.max_pending}")
        print(f"  protocol: length-prefixed JSON frames "
              f"({'/'.join(OPS)}) — see README")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            # Ctrl-C cancels this task inside asyncio.run — drain while
            # the loop is still alive: in-flight requests finish (up to
            # --drain-grace seconds), new connects are refused.
            await server.stop(drain_grace=args.drain_grace)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if exporter is not None:
            exporter.close()
    return 0


def _cmd_supervise(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.shard.supervisor import Supervisor, spawn_group

    placement = None
    if getattr(args, "placement", ""):
        from repro.shard.placement import Placement

        placement = Placement.from_spec(args.placement)
    groups, fallback = spawn_group(
        args.shards,
        replication=args.replicas,
        pool=args.pool,
        scale=args.scale,
        rows=args.rows,
        placement=placement,
        data_dir=args.data_dir or None,
        log_dir=args.log_dir or None,
        base_port=args.base_port,
    )
    processes = [fallback] + [p for group in groups for p in group]
    exporter = None
    registry = None
    if args.metrics_port is not None:
        from repro.obs import MetricsHTTPServer, MetricsRegistry

        registry = MetricsRegistry()
        exporter = MetricsHTTPServer(registry, port=args.metrics_port)
    supervisor = Supervisor(
        processes,
        backoff_base=args.backoff_base,
        crash_loop_threshold=args.crash_loop_threshold,
        check_interval=args.check_interval,
        metrics=registry,
    )
    print(
        f"repro supervised deployment: {args.shards} shards × "
        f"{args.replicas} replicas + full-copy fallback"
    )
    for process in processes:
        durable = f"  [{process.data_dir}]" if process.data_dir else ""
        print(f"  {process.label:>8} @ 127.0.0.1:{process.port}{durable}")
    if exporter is not None:
        print(f"  metrics @ {exporter.url} (supervision events)")
    print("supervising (Ctrl-C drains and exits)")
    try:
        while True:
            for event in supervisor.poll():
                print("  " + json.dumps(event, sort_keys=True))
            time.sleep(supervisor.check_interval)
    except KeyboardInterrupt:
        print("\ndraining fleet")
        supervisor.stop(drain_grace=args.drain_grace)
    finally:
        if exporter is not None:
            exporter.close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.api import connect
    from repro.check.diagnostics import has_failures
    from repro.data.organisation import organisation_placement
    from repro.service.registry import paper_registry
    from repro.shard.client import endpoint_session
    from repro.shred.packages import annotations
    from repro.sql.codegen import SqlOptions

    registry = paper_registry()
    names = args.queries or registry.names()
    session = connect(
        schema=ORGANISATION_SCHEMA,
        options=SqlOptions(optimize=True),
        cache=False,
    )
    placement = organisation_placement()
    deployed = endpoint_session(
        ORGANISATION_SCHEMA, placement, options=session.options, cache=False
    )
    failed = False
    for name in names:
        if name not in registry:
            known = ", ".join(registry.names())
            raise SystemExit(f"unknown query {name!r}; one of: {known}")
        term = registry.lookup(name).term
        diagnostics = session.lint(term, placement=placement)
        reported = [
            d
            for d in diagnostics
            if args.verbose or d.severity in ("error", "warning")
        ]
        # Generated code is invisible to ruff/mypy: build every statement's
        # fold here, under both plan shapes and under the deployment schema
        # of the default placement (what every store of a sharded
        # deployment compiles), and have SQLite prepare its column-table
        # form (what a shard answers a coordinator with) against the empty
        # store.
        broken = []
        for shape in (session, session.with_options(scheme="flat"), deployed):
            plan = f"{shape.options.scheme or 'default'} plan"
            if shape is deployed:
                plan += " of a deployment"
            for path, statement in annotations(shape.compile(term).sql_package):
                try:
                    statement.fold()
                except Exception as error:  # reported as a finding
                    broken.append(f"fold at {path} ({plan}) does not build: {error!r}")
                try:
                    session.db.connection().execute(
                        "EXPLAIN " + statement.column_table_sql,
                        dict.fromkeys(statement.params),
                    )
                except Exception as error:  # reported as a finding
                    broken.append(
                        f"column-table form at {path} ({plan}) does not "
                        f"prepare: {error!r}"
                    )
        if has_failures(diagnostics) or broken:
            failed = True
            status = "FAIL"
        else:
            status = "ok"
        print(f"{name}: {status}")
        for finding in reported + broken:
            print(f"  {finding}")
    return 1 if failed else 0


def _cmd_normal_form(args: argparse.Namespace) -> int:
    from repro.normalise import normalise, pretty_nf

    print(pretty_nf(normalise(_query(args.query), ORGANISATION_SCHEMA)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sql = sub.add_parser("sql", help="show the shredded SQL of a paper query")
    sql.add_argument("query")
    sql.add_argument(
        "--scheme",
        choices=["flat", "natural"],
        help="force an index scheme (default: natural when every table "
        "declares a key, else flat)",
    )
    sql.add_argument("--inline-with", action="store_true")
    sql.add_argument("--order-by-keys", action="store_true")
    sql.add_argument(
        "--optimize",
        action="store_true",
        help="run the logical SQL optimizer over the generated statements",
    )
    sql.add_argument(
        "--explain",
        action="store_true",
        help="print optimised vs unoptimised SQL plus SQLite's EXPLAIN "
        "QUERY PLAN for every package member (implies both variants)",
    )
    sql.add_argument(
        "--json",
        action="store_true",
        help="machine-readable explain payload (engine, optimizer, "
        "statements, diagnostics) instead of raw SQL text",
    )
    sql.set_defaults(fn=_cmd_sql)

    run = sub.add_parser(
        "run",
        help="run a paper query on the Fig. 3 data via the repro.api façade",
    )
    run.add_argument("query")
    run.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="execution engine (auto is the batched engine)",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print query/row/time counters and plan-cache hits after the "
        "result",
    )
    run.add_argument(
        "--explain",
        action="store_true",
        help="print the façade's compilation + engine report instead of "
        "running",
    )
    run.set_defaults(fn=_cmd_run)

    trace = sub.add_parser(
        "trace",
        help="run a paper query once with tracing on and print the nested "
        "span tree (compile stages, per-rule optimizer timings, "
        "per-statement execution, stitch), then once more across two local "
        "shards (route, per-shard sub-request, coordinator stitch)",
    )
    trace.add_argument("query")
    trace.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="full explain payload with the span tree under \"trace\"",
    )
    trace.set_defaults(fn=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio query service on the organisation data",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411)
    serve.add_argument(
        "--pool",
        type=int,
        default=4,
        help="read-only connection leases (concurrent request slots)",
    )
    serve.add_argument(
        "--scale",
        type=int,
        default=0,
        help="serve a generated instance with this many departments "
        "(default: the Fig. 3 instance)",
    )
    serve.add_argument(
        "--rows",
        type=int,
        default=20,
        help="employees per department for --scale instances",
    )
    serve.add_argument(
        "--shard",
        default="",
        metavar="I/N",
        help="serve one slice of a sharded deployment: i/n serves "
        "partition i of n (departments hash-partitioned by name, other "
        "tables replicated), full/n serves the designated full-copy "
        "fallback shard",
    )
    serve.add_argument(
        "--placement",
        default="",
        metavar="SPEC",
        help="partition the regenerated data, and compile (full/n too), "
        "under this placement spec "
        "(Placement.to_spec() text, e.g. "
        "'departments=name,employees=dept;aligned=departments+employees'); "
        "default: departments sharded by name, everything replicated",
    )
    serve.add_argument(
        "--data-dir",
        default="",
        metavar="DIR",
        help="durable mode: keep this server's store in "
        "DIR/shard-<label>.sqlite (WAL); a restart recovers every "
        "pre-crash insert instead of regenerating seed data",
    )
    serve.add_argument(
        "--replica",
        type=int,
        default=0,
        metavar="J",
        help="replica index within this shard's group (shifts the "
        "durable file name so siblings never share a store; 0 = primary)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="admission limit: executes in flight beyond N are shed with "
        "an OVERLOADED error frame (default: pool × 8)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="server-side deadline for executes that name none "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="additionally serve Prometheus text exposition over HTTP "
        "GET /metrics on this port (0 = OS-assigned); the same text is "
        "always available in-band via the 'metrics' wire op",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on shutdown, how long in-flight requests get to finish "
        "before their connections are cancelled",
    )
    serve.set_defaults(fn=_cmd_serve)

    supervise = sub.add_parser(
        "supervise",
        help="spawn and supervise a local sharded fleet "
        "(shards × replicas + full-copy fallback, auto-restart)",
    )
    supervise.add_argument("--shards", type=int, default=2)
    supervise.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="endpoints per logical shard (1 = a lone primary)",
    )
    supervise.add_argument("--pool", type=int, default=1)
    supervise.add_argument("--scale", type=int, default=0)
    supervise.add_argument("--rows", type=int, default=20)
    supervise.add_argument(
        "--placement",
        default="",
        metavar="SPEC",
        help="placement spec forwarded to every child as serve --placement",
    )
    supervise.add_argument(
        "--data-dir",
        default="",
        metavar="DIR",
        help="durable stores for every process (see serve --data-dir)",
    )
    supervise.add_argument(
        "--log-dir",
        default="",
        metavar="DIR",
        help="per-process stdout/stderr logs "
        "(default: $REPRO_SUPERVISOR_LOG_DIR, else discarded)",
    )
    supervise.add_argument(
        "--base-port",
        type=int,
        default=0,
        metavar="PORT",
        help="fallback binds PORT, shard i replica j binds "
        "PORT+1+i·replicas+j (default: OS-assigned free ports)",
    )
    supervise.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the supervisor's restart/crash-loop counters as "
        "Prometheus text exposition on this port (0 = OS-assigned)",
    )
    supervise.add_argument("--backoff-base", type=float, default=0.25)
    supervise.add_argument("--crash-loop-threshold", type=int, default=5)
    supervise.add_argument("--check-interval", type=float, default=0.25)
    supervise.add_argument("--drain-grace", type=float, default=10.0)
    supervise.set_defaults(fn=_cmd_supervise)

    lint = sub.add_parser(
        "lint",
        help="static diagnostics for registry queries (compiles, never "
        "executes); exit 1 on any error- or warning-level finding",
    )
    lint.add_argument(
        "queries",
        nargs="*",
        metavar="QUERY",
        help="registry query names (default: the whole paper registry)",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also print info-level diagnostics (shard plan, statement "
        "bound, advisory indexes)",
    )
    lint.set_defaults(fn=_cmd_lint)

    nf = sub.add_parser("normal-form", help="show a query's normal form")
    nf.add_argument("query")
    nf.set_defaults(fn=_cmd_normal_form)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument(
        "--figure", choices=["10", "11", "A", "counts", "ablations"]
    )
    figures.add_argument("--all", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "figures":
        from repro.bench.figures import main as figures_main

        forwarded = []
        if args.figure:
            forwarded += ["--figure", args.figure]
        if getattr(args, "all", False):
            forwarded += ["--all"]
        return figures_main(forwarded)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
