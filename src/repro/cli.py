"""Command-line entry point: regenerate any paper artefact.

The command set is driven by the experiment registry
(:mod:`repro.api.registry`) — every ``@experiment``-decorated figure,
table, or extension study shows up automatically::

    repro-caem list
    repro-caem run table1
    repro-caem run fig8  --preset quick --seeds 1 2
    repro-caem run fig10 --preset full --executor pool:8 --out results/
    repro-caem run fig11 --store runs/fig11.jsonl      # persist raw runs
    repro-caem run fig11 --from runs/fig11.jsonl       # re-render, no sim
    repro-caem run all   --preset quick
    repro-caem run fig8  --profile fig8.pstats         # find the hot spots

The service tier (see :mod:`repro.service`) adds the result database,
the content-addressed run cache, and the campaign server::

    repro-caem run fig10 --cache results.sqlite   # repeat = pure reads
    repro-caem migrate runs/fig11.jsonl results.sqlite
    repro-caem query results.sqlite --experiment fig10 --where 'delivery_rate>0.9'
    repro-caem query results.sqlite --agg mean --group-by protocol,load
    repro-caem gc results.sqlite --keep-latest 1     # evict superseded rows
    repro-caem serve --db results.sqlite --port 8351

The scale tier's vector backend (``repro.vector``) runs the same
experiments on the structure-of-arrays engine::

    repro-caem run ext-scale --backend vector --preset quick

``--executor SPEC`` names how the experiment's scenario grid runs —
``serial`` (the default), ``pool:N``, ``supervised:timeout=S,retries=N``
or ``distributed:local=N`` — and tables are identical under every one.
The pre-registry spelling ``repro-caem fig8 ...`` still works as an
alias for ``run fig8 ...``.
(Also available as ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .api import get_experiment, list_experiments, use_executor, use_run_cache
from .errors import ExperimentError, ReproError

__all__ = ["main", "build_parser"]


def _known_names() -> List[str]:
    return [spec.name for spec in list_experiments()]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-caem",
        description="Regenerate the CAEM paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="enumerate the registered experiments"
    )
    list_p.add_argument(
        "--kind",
        default=None,
        choices=("figure", "table", "extension"),
        help="only show experiments of this kind",
    )

    run_p = sub.add_parser(
        "run", help="run one registered experiment (or 'all')"
    )
    run_p.add_argument(
        "experiment",
        choices=_known_names() + ["all"],
        help="which artefact to regenerate",
    )
    run_p.add_argument(
        "--preset",
        default="quick",
        choices=("full", "quick", "smoke"),
        help="scale tier (full = paper's Table II, quick = CI scale)",
    )
    run_p.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[1],
        help="replication seeds",
    )
    run_p.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=[5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        help="traffic loads (packets/s per node) for the sweep figures",
    )
    run_p.add_argument(
        "--executor",
        default=None,
        metavar="SPEC",
        help="execution backend as one spec: 'serial', 'pool:4', "
        "'supervised:jobs=2,timeout=30,retries=1', or "
        "'distributed:bind=127.0.0.1:8400,local=2' (self-hosts a "
        "coordinator; remote machines join with 'repro-caem worker "
        "--connect URL'); results identical under every executor "
        "(default: serial; with --resume: supervised)",
    )
    run_p.add_argument(
        "--backend",
        default=None,
        choices=("event", "vector", "auto"),
        help="simulation engine, for experiments that support it "
        "(ext-scale): event = the per-packet reference kernel, vector = "
        "the population-scale array engine (see repro.vector), auto = "
        "pick vector for large populations when the config qualifies",
    )
    run_p.add_argument(
        "--out",
        default=None,
        help="directory to also write <figure>.csv into",
    )
    run_p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="append every raw RunResult to this .jsonl/.csv/.sqlite store",
    )
    run_p.add_argument(
        "--from",
        dest="from_store",
        default=None,
        metavar="PATH",
        help="re-render from a previously written store (.jsonl or a "
        ".sqlite result database) instead of simulating",
    )
    run_p.add_argument(
        "--cache",
        default=None,
        metavar="DB",
        help="content-addressed run cache: serve grid cells already in "
        "this .sqlite result database, simulate and store only the "
        "misses (a repeated run is 100%% reads; cache stats go to stderr)",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from the --store/--cache "
        "result database: cells already stored are served as-is, only "
        "the missing remainder is simulated (output byte-identical to "
        "an uninterrupted run); progress is checkpointed in a durable "
        "manifest as cells complete",
    )
    run_p.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="run under cProfile; dump pstats data to PATH and print the "
        "hottest functions to stderr (stdout stays byte-identical)",
    )
    run_p.add_argument(
        "--profile-rounds",
        default=None,
        metavar="DIR",
        help="write per-round phase timelines (JSON, one file per "
        "vector-backend cell) into DIR, for experiments that support it "
        "(ext-scale): names the dominant engine phases — membership "
        "assignment, CSMA mirrors, channel advance — round by round "
        "(stdout stays byte-identical; event-backend cells write nothing)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the campaign server (JSON HTTP API over a result DB)",
    )
    serve_p.add_argument(
        "--db",
        default="results.sqlite",
        metavar="PATH",
        help="SQLite result database to serve (created if absent)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8351,
        help="TCP port (0 picks a free one and prints it)",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent campaign jobs (worker threads)",
    )
    serve_p.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    serve_p.add_argument(
        "--distributed",
        action="store_true",
        help="attach a lease board so jobs submitted with "
        "{\"executor\": \"distributed\"} fan out to remote "
        "'repro-caem worker --connect' processes via /work/* endpoints",
    )
    serve_p.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="distributed lease expiry: a worker that misses heartbeats "
        "for S seconds forfeits its cell back to the queue (default 30)",
    )

    worker_p = sub.add_parser(
        "worker",
        help="serve a distributed coordinator: lease cells, simulate, "
        "report results (see run --executor distributed / serve "
        "--distributed)",
    )
    worker_p.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8400",
    )
    worker_p.add_argument(
        "--id",
        dest="worker_id",
        default=None,
        help="worker name shown in /work/status (default: host-pid)",
    )
    worker_p.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="S",
        help="idle poll interval when no work is pending (default 0.2)",
    )
    worker_p.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="S",
        help="exit after S seconds with no work (default: serve forever)",
    )
    worker_p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N cells (tests/CI)",
    )
    worker_p.add_argument(
        "--quiet", action="store_true", help="suppress per-cell logging"
    )

    query_p = sub.add_parser(
        "query",
        help="filtered reads from a result store, no server needed",
    )
    query_p.add_argument(
        "store", metavar="STORE",
        help="result store to read (.sqlite/.db/.jsonl/.csv)",
    )
    query_p.add_argument("--experiment", default=None)
    query_p.add_argument("--digest", default=None,
                         help="exact config digest (64 hex chars)")
    query_p.add_argument("--seed", type=int, default=None)
    query_p.add_argument("--protocol", default=None)
    query_p.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="PRED",
        help="metric predicate like 'delivery_rate>0.9' (repeatable; "
        "all must hold)",
    )
    query_p.add_argument(
        "--columns",
        nargs="+",
        default=None,
        metavar="FIELD",
        help="RunResult fields to print (default: a summary set)",
    )
    query_p.add_argument("--limit", type=int, default=None)
    query_p.add_argument(
        "--format",
        dest="out_format",
        default="table",
        choices=("table", "jsonl"),
        help="table = aligned text; jsonl = one full-fidelity row per line",
    )
    query_p.add_argument(
        "--agg",
        default=None,
        choices=("mean", "min", "max", "sum"),
        help="reduce the matching rows instead of listing them; computed "
        "in SQL for a .sqlite store (JSON payloads never decoded), in "
        "Python for flat files",
    )
    query_p.add_argument(
        "--group-by",
        default=None,
        metavar="KEYS",
        help="comma-separated group keys for --agg, e.g. 'protocol,load' "
        "(aliases: load=load_pps, nodes=n_nodes); default: one group",
    )

    gc_p = sub.add_parser(
        "gc",
        help="evict superseded rows from a result database and VACUUM",
    )
    gc_p.add_argument(
        "store", metavar="DB",
        help="SQLite result database (.sqlite/.sqlite3/.db)",
    )
    gc_p.add_argument(
        "--keep-latest",
        type=int,
        default=1,
        metavar="K",
        help="generations to keep per cell — a cell is (experiment, "
        "protocol, load, seed, horizon, config digest), the run-cache "
        "pairing key (default: 1)",
    )
    gc_p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be deleted without writing",
    )

    migrate_p = sub.add_parser(
        "migrate",
        help="copy a result store between formats (jsonl/csv <-> sqlite)",
    )
    migrate_p.add_argument("src", metavar="SRC",
                           help="existing store (.jsonl/.csv/.sqlite/.db)")
    migrate_p.add_argument("dst", metavar="DST",
                           help="destination store, created/appended")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_experiments(kind=args.kind)
    width = max(len(s.name) for s in specs) if specs else 4
    for spec in specs:
        sys.stdout.write(
            f"{spec.name:<{width}}  [{spec.kind}]  {spec.summary}\n"
        )
    sys.stdout.write(f"{len(specs)} experiments registered\n")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.profile:
        return _profiled(_cmd_run_body, args)
    return _cmd_run_body(args)


def _profiled(body, args: argparse.Namespace) -> int:
    """Run ``body(args)`` under cProfile; dump + summarise to stderr.

    The profile summary goes to stderr so stdout remains byte-identical
    to an unprofiled run (the store/figure diff workflows rely on that).
    """
    import cProfile
    import pstats

    # Fail fast on an unwritable dump path — discovering it in the
    # finally block would waste the whole (possibly minutes-long) run
    # and mask any exception the body itself raised.
    try:
        with open(args.profile, "wb"):
            pass
    except OSError as exc:
        raise ExperimentError(
            f"cannot write profile output {args.profile!r}: {exc}"
        ) from exc

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = body(args)
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        sys.stderr.write(
            f"profile data written to {args.profile} "
            f"(inspect with: python -m pstats {args.profile})\n"
        )
    return code


def _cmd_run_body(args: argparse.Namespace) -> int:
    from .service import RunCache, open_store

    names = (
        _known_names() if args.experiment == "all" else [args.experiment]
    )
    stored_runs = None
    if args.from_store:
        from_store = open_store(args.from_store)
        if from_store.format not in ("jsonl", "sqlite"):
            raise ExperimentError(
                "--from requires a .jsonl store or a .sqlite result "
                "database: CSV stores are scalar-only (time series "
                "dropped), so series figures would render empty"
            )
        if not from_store.path.exists():
            raise ExperimentError(f"no such result store: {from_store.path}")
        stored_runs = from_store.load()
    store = open_store(args.store) if args.store else None
    if (
        store is not None
        and args.from_store
        and store.path.resolve() == open_store(args.from_store).path.resolve()
    ):
        raise ExperimentError(
            f"refusing to append runs loaded from {store.path} back into "
            f"itself (--from and --store name the same file)"
        )
    cache = None
    if args.resume:
        if args.from_store:
            raise ExperimentError(
                "--resume and --from are mutually exclusive: --resume "
                "re-simulates the missing cells, --from never simulates"
            )
        if not (args.cache or args.store):
            raise ExperimentError(
                "--resume needs the result database to resume from: "
                "name it with --store (or --cache)"
            )
        resume_store = (
            open_store(args.cache) if args.cache else store
        )
        if resume_store.format not in ("jsonl", "sqlite"):
            raise ExperimentError(
                "--resume requires a .jsonl store or a .sqlite result "
                "database: CSV stores are scalar-only, so resumed cells "
                "would render differently from simulated ones"
            )
        # The resume target becomes the cache's database (hits served
        # from it, misses appended there); when it came from --store the
        # post-run bulk extend below must not also run — it would store
        # every row a second time.
        cache = RunCache(resume_store, manifest=True)
        if not args.cache:
            store = None
    elif args.cache:
        if args.from_store:
            raise ExperimentError(
                "--cache and --from are mutually exclusive: --cache "
                "already reads stored cells and simulates only the misses"
            )
        cache = RunCache(open_store(args.cache))
    executor = args.executor
    if executor is None and args.resume:
        # A resumed campaign is one that crashed before: by default it
        # runs supervised (process-per-cell, two retries per cell).
        executor = "supervised"
    with use_run_cache(cache), use_executor(executor):
        for name in names:
            spec = get_experiment(name)
            figure = spec.run(
                preset=args.preset,
                seeds=tuple(args.seeds),
                loads_pps=tuple(args.loads),
                backend=args.backend,
                profile_rounds=args.profile_rounds,
                runs=stored_runs,
            )
            sys.stdout.write(figure.render())
            sys.stdout.write("\n")
            if store is not None and figure.runs:
                store.extend(figure.runs)
                sys.stdout.write(
                    f"stored {len(figure.runs)} runs in {store.path}\n\n"
                )
            if args.out:
                path = figure.save_csv(args.out)
                sys.stdout.write(f"wrote {path}\n\n")
    if cache is not None:
        # Stats go to stderr so stdout stays byte-identical between the
        # cold and the fully cached pass (the CI diff relies on that).
        sys.stderr.write(cache.stats.describe() + "\n")
        if args.resume and cache.last_manifest is not None:
            sys.stderr.write(cache.last_manifest.describe() + "\n")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import build_server

    server = build_server(
        args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=args.quiet,
        distributed=args.distributed,
        lease_timeout_s=args.lease_timeout,
    )
    host, port = server.server_address[:2]
    sys.stderr.write(
        f"campaign server on http://{host}:{port} (db={args.db}) — "
        f"POST /campaigns to submit, Ctrl-C to stop\n"
    )
    if args.distributed:
        sys.stderr.write(
            f"distributed lease board attached — workers join with: "
            f"repro-caem worker --connect http://{host}:{port}\n"
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        sys.stderr.write("shutting down\n")
    finally:
        server.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json as json_mod

    from .experiments.report import render_table
    from .service import open_store, parse_predicate, query_runs
    from .service.query import DEFAULT_COLUMNS

    store = open_store(args.store)
    if not store.path.exists():
        raise ExperimentError(f"no such result store: {store.path}")
    if args.agg is not None:
        return _query_aggregate(args, store)
    if args.group_by is not None:
        raise ExperimentError(
            "--group-by needs --agg (e.g. --agg mean --group-by "
            "protocol,load)"
        )
    rows = query_runs(
        store,
        experiment=args.experiment,
        config_digest=args.digest,
        seed=args.seed,
        protocol=args.protocol,
        where=[parse_predicate(text) for text in args.where],
        limit=args.limit,
    )
    if args.out_format == "jsonl":
        for run in rows:
            sys.stdout.write(json_mod.dumps(run.to_dict()) + "\n")
        return 0
    columns = list(args.columns) if args.columns else list(DEFAULT_COLUMNS)
    table_rows = []
    for run in rows:
        summary = run.to_dict()
        try:
            table_rows.append(
                [summary[c][:12] if c == "config_digest" and summary[c]
                 else summary[c] for c in columns]
            )
        except KeyError as exc:
            raise ExperimentError(
                f"unknown column {exc.args[0]!r}; RunResult fields: "
                f"{', '.join(sorted(summary))}"
            ) from None
    sys.stdout.write(render_table(columns, table_rows))
    sys.stdout.write(f"{len(rows)} rows\n")
    return 0


def _query_aggregate(args: argparse.Namespace, store) -> int:
    import json as json_mod

    from .experiments.report import render_table
    from .service import aggregate_runs, parse_predicate
    from .service.query import DEFAULT_AGG_METRICS

    group_by = (
        [k.strip() for k in args.group_by.split(",") if k.strip()]
        if args.group_by else []
    )
    metrics = list(args.columns) if args.columns else list(DEFAULT_AGG_METRICS)
    groups = aggregate_runs(
        store,
        group_by,
        agg=args.agg,
        metrics=metrics,
        experiment=args.experiment,
        config_digest=args.digest,
        seed=args.seed,
        protocol=args.protocol,
        where=[parse_predicate(text) for text in args.where],
    )
    if args.limit is not None:
        groups = groups[:args.limit]
    if args.out_format == "jsonl":
        for record in groups:
            sys.stdout.write(json_mod.dumps(record) + "\n")
        return 0
    columns = list(groups[0]) if groups else group_by + ["n"] + metrics
    sys.stdout.write(
        render_table(columns, [[g[c] for c in columns] for g in groups])
    )
    sys.stdout.write(f"{len(groups)} groups ({args.agg})\n")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .exec.worker import run_worker

    sys.stderr.write(
        f"worker connecting to {args.connect} (Ctrl-C to stop)\n"
    )
    try:
        stats = run_worker(
            args.connect,
            worker_id=args.worker_id,
            poll_s=args.poll,
            idle_exit_s=args.idle_exit,
            max_cells=args.max_cells,
            quiet=args.quiet,
        )
    except KeyboardInterrupt:
        sys.stderr.write("worker interrupted\n")
        return 0
    sys.stderr.write(
        f"worker done: {stats.cells_done} cells completed, "
        f"{stats.cells_failed} failed\n"
    )
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    from .service import collect_garbage, describe_gc

    report = collect_garbage(
        args.store, keep_latest=args.keep_latest, dry_run=args.dry_run
    )
    sys.stdout.write(describe_gc(report) + "\n")
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from .service import open_store

    src = open_store(args.src)
    if not src.path.exists():
        raise ExperimentError(f"no such result store: {src.path}")
    dst = open_store(args.dst)
    if src.path.resolve() == dst.path.resolve():
        raise ExperimentError("SRC and DST name the same file")
    runs = src.load()
    dst.extend(runs)
    sys.stdout.write(
        f"migrated {len(runs)} runs: {src.path} ({src.format}) -> "
        f"{dst.path} ({dst.format})\n"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Pre-registry compatibility: "repro-caem fig8 ..." == "run fig8 ...".
    if argv and argv[0] not in (
        "run", "list", "serve", "worker", "query", "gc", "migrate",
        "-h", "--help"
    ):
        argv.insert(0, "run")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "gc":
            return _cmd_gc(args)
        if args.command == "migrate":
            return _cmd_migrate(args)
        return _cmd_run(args)
    except ReproError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # Output piped into head/less that exited early — not an error.
        # Point stdout at devnull so the interpreter-exit flush of the
        # buffered remainder cannot raise again ("Exception ignored").
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
