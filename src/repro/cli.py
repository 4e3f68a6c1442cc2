"""µP4C command-line interface.

Mirrors the paper's Fig. 4 usage of the compiler:

    # Stage 1: compile a module to µP4-IR JSON
    python -m repro compile l3.up4 -o l3.ir.json

    # Stage 2: link modules and build for a target
    python -m repro build main.up4 l3.up4 ipv4.up4 --target v1model -o main.p4
    python -m repro build main.up4 l3.up4 ipv4.up4 --target tna --report

    # Inspect the logical architecture or the library
    python -m repro arch
    python -m repro library

    # Regenerate the evaluation tables
    python -m repro eval

    # Profile the compiler passes over a library composition
    python -m repro profile P4

    # Soak the behavioral switch with randomized + injected faults
    python -m repro soak --programs P4,P7 --packets 50000 --fault-rate 0.1

    # Same stream fanned over 4 switch replicas (sharded engine)
    python -m repro soak --programs P4 --workers 4 --shard-policy flow-hash

    # Long run with a live /stats.json + /metrics endpoint and a final
    # JSON telemetry artifact
    python -m repro soak --workers 2 --stats-port 9200 --metrics-out final.json

    # Read a running endpoint (URL, host:port, bare port, or a file)
    python -m repro stats 9200
    python -m repro stats http://127.0.0.1:9200 --json

    # Stream per-packet traces as JSON lines
    python -m repro soak --packets 2000 --trace-out traces.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import nullcontext as _nullcontext
from pathlib import Path
from typing import List, Optional

from repro.core.arch import describe_architecture
from repro.core.driver import CompilerOptions, Up4Compiler
from repro.errors import (
    EXIT_INTERNAL_ERROR,
    EXIT_INTERRUPTED,
    ReproError,
    TargetError,
)
from repro.frontend.json_ir import load_module
from repro.obs.metrics import METRICS, collecting
from repro.obs.trace import Tracer
from repro.targets.backends import (
    DEFAULT_EXEC_BACKEND,
    EXEC_BACKENDS,
    backend_of,
    executor_class,
)
from repro.targets.soak import DEFAULT_BATCH_LANES

_EPILOG = """\
exit codes:
  0   success
  1   generic error
  2   compile error (lex / parse / typecheck / link / analysis / backend)
  3   target resource exhaustion (PHV, stages, ALU sources)
  4   behavioral-target error
  70  internal error (unexpected exception — please report)
  130 interrupted (SIGINT / Ctrl-C)

errors print as `error[<code>]: <message>` on stderr, where <code> is a
stable machine-readable slug (e.g. parse-error, resource-error).
"""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _read_modules(paths: List[Path], compiler: Up4Compiler):
    """Compile .up4 sources (through the compiler, so spans and metrics
    are recorded) or load .json µP4-IR files."""
    modules = []
    for path in paths:
        text = path.read_text()
        if path.suffix == ".json":
            modules.append(load_module(text))
        else:
            modules.append(compiler.frontend(text, path.name))
    return modules


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-pass timing spans and print them when done",
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        metavar="FILE",
        help="collect compiler metrics; write the JSON snapshot to FILE "
        "(default: stdout)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON object instead of text",
    )


def _add_live_flags(parser: argparse.ArgumentParser) -> None:
    """Shared live-telemetry export flags (soak and profile)."""
    parser.add_argument(
        "--stats-port", type=int, default=None, metavar="PORT",
        help="serve the rolling merged telemetry snapshot over HTTP on "
        "127.0.0.1:PORT while the run is live (/stats.json, /metrics; "
        "0 binds an ephemeral port, printed to stderr)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the final merged telemetry snapshot as JSON to FILE",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="stream one schema-versioned JSON line of pkttrace events "
        "per packet to FILE (single-process runs only)",
    )


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    return Tracer(enabled=True) if getattr(args, "trace", False) else None


def _emit_observability(
    args: argparse.Namespace,
    tracer: Optional[Tracer],
    payload: Optional[dict] = None,
) -> None:
    """Print/write the trace table and metrics snapshot per CLI flags.

    In ``--json`` mode the spans and (stdout-destined) metrics are folded
    into ``payload`` instead of printed as text.
    """
    json_mode = payload is not None
    if tracer is not None:
        if json_mode:
            payload["trace"] = tracer.to_dicts()
        else:
            print()
            print(tracer.render_table())
    if args.metrics is not None:
        if args.metrics == "-":
            if json_mode:
                payload["metrics"] = METRICS.snapshot()
            else:
                print()
                print(METRICS.to_json())
        else:
            Path(args.metrics).write_text(METRICS.to_json() + "\n")
            if not json_mode:
                print(f"wrote {len(METRICS)} metrics to {args.metrics}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_compile(args: argparse.Namespace) -> int:
    from repro.core.api import save_ir

    compiler = Up4Compiler()
    module = _read_modules([Path(args.module)], compiler)[0]
    ir = save_ir(module)
    if args.output:
        Path(args.output).write_text(ir)
        print(f"wrote µP4-IR to {args.output}")
    else:
        print(ir)
    return 0


def _tna_report_text(report, verbose: bool) -> str:
    lines = [report.summary()]
    if verbose:
        lines.append("")
        lines.append("stage placement:")
        for stage, use in enumerate(report.schedule.stages):
            lines.append(f"  stage {stage:2d}: {', '.join(use.tables)}")
        counts = report.container_counts
        lines.append("")
        lines.append(
            f"PHV: 8b={counts[8]} 16b={counts[16]} 32b={counts[32]} "
            f"({report.bits_allocated} bits allocated)"
        )
        if report.split.violations:
            lines.append(
                f"split-pass fixes: {len(report.split.extra_depth)} tables"
            )
    return "\n".join(lines)


def cmd_build(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.modules]
    options = CompilerOptions(
        target=args.target,
        monolithic=args.monolithic,
        optimize_mats=args.optimize,
        align_fields=not args.no_align,
        split_assignments=not args.no_split,
    )
    tracer = _make_tracer(args)
    compiler = Up4Compiler(options, tracer=tracer)

    with collecting() if args.metrics is not None else _nullcontext():
        modules = _read_modules(paths, compiler)
        result = compiler.compile_modules(modules[0], modules[1:])

    region = result.region
    payload: Optional[dict] = None
    if args.json:
        payload = {
            "name": result.composed.name,
            "mode": result.composed.mode,
            "region": {
                "extract_length": region.extract_length,
                "byte_stack": region.byte_stack_size,
                "min_packet": region.min_packet_size,
            },
            "tables": len(result.composed.tables),
            "target": args.target,
        }
    else:
        print(
            f"composed {result.composed.name!r} [{result.composed.mode}]: "
            f"El={region.extract_length}B Bs={region.byte_stack_size}B "
            f"minpkt={region.min_packet_size}B, "
            f"{len(result.composed.tables)} MATs"
        )

    if args.target == "v1model":
        text = result.target_output.source_text
        if payload is not None:
            payload["source_lines"] = len(text.splitlines())
            if not args.output:
                payload["source_text"] = text
        if args.output:
            Path(args.output).write_text(text)
            if payload is None:
                print(f"wrote generated V1Model program to {args.output}")
            else:
                payload["output"] = args.output
        elif payload is None:
            print(text)
    else:
        report = result.target_output
        text = _tna_report_text(report, args.report or bool(args.output))
        if payload is not None:
            payload["report"] = report.to_dict()
        if args.output:
            Path(args.output).write_text(text + "\n")
            if payload is None:
                print(f"wrote TNA resource report to {args.output}")
            else:
                payload["output"] = args.output
        elif payload is None:
            print(text)

    _emit_observability(args, tracer, payload)
    if payload is not None:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_arch(args: argparse.Namespace) -> int:
    print(describe_architecture())
    return 0


def cmd_library(args: argparse.Namespace) -> int:
    from repro.lib.catalog import COMPOSITIONS, composition_matrix
    from repro.lib.loader import list_sources

    print("library modules (src/repro/lib/modules):")
    for name in list_sources("modules"):
        print(f"  {name}")
    print("\nmonolithic baselines (src/repro/lib/monolithic):")
    for name in list_sources("monolithic"):
        print(f"  {name}")
    print("\ncompositions:")
    for prog, recipe in COMPOSITIONS.items():
        print(f"  {prog}: {' + '.join(recipe)}")
    print()
    print(composition_matrix())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.backend.tna import TnaBackend
    from repro.backend.tna.report import overhead_row
    from repro.errors import ResourceError
    from repro.lib.catalog import PROGRAMS, build_monolithic, build_pipeline

    backend = TnaBackend()
    tracer = _make_tracer(args)
    rows = []
    with collecting() if args.metrics is not None else _nullcontext():
        for name in PROGRAMS:
            span = tracer.span(f"eval.{name}") if tracer else _nullcontext()
            with span:
                micro = backend.compile(build_pipeline(name, tracer=tracer))
                try:
                    mono = backend.compile(build_monolithic(name))
                except ResourceError:
                    mono = None
            rows.append(overhead_row(name, micro, mono))

    payload: Optional[dict] = None
    if args.json:
        payload = {"rows": [row.to_dict() for row in rows]}
    else:
        print("Table 2/3 — µP4 vs monolithic on the modeled Tofino")
        print(
            f"{'prog':4s} {'8b%':>8s} {'16b%':>8s} {'32b%':>8s} "
            f"{'bits%':>8s}   stages"
        )
        for row in rows:
            print(row.render())

    _emit_observability(args, tracer, payload)
    if payload is not None:
        print(json.dumps(payload, indent=2))
    return 0


def _run_profile_soak(
    args: argparse.Namespace, composed, program: str, telemetry, trace_writer
) -> dict:
    """The behavioral push of ``profile --packets``: a fault-free
    routable soak of the program just compiled, inline or over
    ``--workers`` pool replicas, as the ``behavior`` report."""
    from collections import Counter

    from repro.obs.metrics import MetricsRegistry
    from repro.targets.soak import SoakConfig, soak_program

    config = SoakConfig(
        programs=[program],
        packets=args.packets,
        fault_rate=0.0,
        traffic="routable",
        exec_backend=args.exec,
    )
    config.validate()
    if args.workers:
        from repro.targets.engine import EngineConfig
        from repro.targets.pool import WorkerPool
        from repro.targets.tables import table_runtimes

        engine = EngineConfig(
            workers=args.workers,
            shard_policy=args.shard_policy,
            publish_interval_s=0.5 if telemetry is not None else 0.0,
        )
        with WorkerPool(engine) as pool:
            block = pool.submit(
                config, program, telemetry=telemetry, composed=composed
            )
        # The replicas counted in their own registries, and their tables
        # live in the workers: the merged block carries the fold of the
        # former, and a table's strategy follows from its match kinds.
        registry = MetricsRegistry.from_snapshot(block["metrics"])
        tables = {
            name: table.index_info()
            for name, table in table_runtimes(composed).items()
        }
    else:
        block = soak_program(
            config, program, telemetry=telemetry, trace_writer=trace_writer,
            composed=composed,
        )
        registry = METRICS
        tables = block["tables"]
    # Hits and misses count under the executor's metric family, which
    # an alias name (``vector``) does not carry.
    family = backend_of(executor_class(args.exec))
    behavior = {
        "packets": block["packets"],
        "outputs": block["emits"],
        "exec": args.exec,
        "elapsed_ms": round(block["elapsed_s"] * 1000, 3),
        "pkts_per_sec": block["pkts_per_sec"],
        "digest": block["digest"],
        "drops_by_reason": block["drops_by_reason"],
        "ledger_ok": block["ledger_ok"],
        "lookups": {
            # TableRuntime counts lookups under interp.lookup.* whatever
            # the backend (it is runtime-layer state, not backend code);
            # hit/miss counters are per-backend.
            "indexed": registry.counter("interp.lookup.indexed"),
            "scan": registry.counter("interp.lookup.scan"),
            "hits": registry.counter(f"{family}.table_hits"),
            "misses": registry.counter(f"{family}.table_misses"),
        },
        "table_strategies": dict(
            Counter(str(info["strategy"]) for info in tables.values())
        ),
    }
    if args.workers:
        behavior.update(
            workers=block["workers"],
            shard_policy=block["shard_policy"],
            shards=[
                {
                    "shard": shard["shard"],
                    "packets": shard["packets"],
                    "outputs": shard["emits"],
                    "elapsed_s": shard["elapsed_s"],
                }
                for shard in block["shards"]
            ],
            metrics=block["metrics"],
        )
    else:
        behavior["tables"] = tables
    return behavior


def _setup_telemetry(args: argparse.Namespace):
    """Build (telemetry, server, trace_writer) from the shared live-export
    flags; server (when requested) is already started and announced."""
    telemetry = server = trace_writer = None
    if args.stats_port is not None or args.metrics_out:
        from repro.obs.telemetry import LiveTelemetry, StatsServer

        telemetry = LiveTelemetry()
        if args.stats_port is not None:
            try:
                server = StatsServer(telemetry, port=args.stats_port).start()
            except OSError as exc:
                # Busy or privileged port: surface a reason-coded CLI
                # error (exit 4, --json aware) instead of a traceback.
                err = TargetError(
                    f"cannot serve --stats-port {args.stats_port}: "
                    f"{exc.strerror or exc}"
                )
                err.code = "stats-port-unavailable"
                raise err from exc
            print(
                f"stats: {server.url}/stats.json (Prometheus: /metrics)",
                file=sys.stderr,
            )
    if args.trace_out:
        from repro.obs.telemetry import TraceWriter

        trace_writer = TraceWriter(args.trace_out)
    return telemetry, server, trace_writer


def _finish_telemetry(
    args: argparse.Namespace, telemetry, server, trace_writer,
    announce: bool = True,
) -> None:
    if trace_writer is not None:
        trace_writer.close()
        if announce:
            print(
                f"wrote {trace_writer.lines} trace lines to {args.trace_out}",
                file=sys.stderr,
            )
    if server is not None:
        server.close()
    if args.metrics_out and telemetry is not None:
        Path(args.metrics_out).write_text(telemetry.to_json() + "\n")
        if announce:
            print(
                f"wrote telemetry snapshot to {args.metrics_out}",
                file=sys.stderr,
            )


def cmd_soak(args: argparse.Namespace) -> int:
    """Soak/fuzz the behavioral switch under randomized + injected faults."""
    from repro.targets.soak import SoakConfig, render_summary, run_soak

    fault_spec = None
    if args.fault_spec:
        try:
            fault_spec = json.loads(Path(args.fault_spec).read_text())
        except ValueError as exc:  # not JSON, or not text
            err = TargetError(f"bad fault spec {args.fault_spec}: {exc}")
            err.code = "bad-fault-spec"
            raise err from None
    config = SoakConfig(
        programs=[p.strip() for p in args.programs.split(",") if p.strip()],
        packets=args.packets,
        seed=args.seed,
        fault_rate=args.fault_rate,
        fault_spec=fault_spec,
        mode=args.mode,
        strict=args.strict,
        traffic=args.traffic,
        exec_backend=args.exec,
        flight_recorder=args.flight_recorder,
        batch_lanes=args.batch_lanes,
    )
    telemetry, server, trace_writer = _setup_telemetry(args)
    engine = None
    if args.workers:
        from repro.targets.engine import EngineConfig
        from repro.targets.faults import ChaosPlan
        from repro.targets.supervision import RestartPolicy

        restart = None
        if (
            args.max_restarts is not None
            or args.restart_budget is not None
            or args.restart_backoff is not None
        ):
            defaults = RestartPolicy()
            restart = RestartPolicy(
                max_restarts_per_shard=(
                    args.max_restarts
                    if args.max_restarts is not None
                    else defaults.max_restarts_per_shard
                ),
                restart_budget=(
                    args.restart_budget
                    if args.restart_budget is not None
                    else defaults.restart_budget
                ),
                backoff_base_s=(
                    args.restart_backoff
                    if args.restart_backoff is not None
                    else defaults.backoff_base_s
                ),
            )
        engine = EngineConfig(
            workers=args.workers,
            shard_policy=args.shard_policy,
            publish_interval_s=(
                args.publish_interval if telemetry is not None else 0.0
            ),
            restart=restart,
            chaos=ChaosPlan.from_specs(args.chaos) if args.chaos else None,
        )
    else:
        pool_only = [
            flag
            for flag, value in (
                ("--chaos", args.chaos or None),
                ("--max-restarts", args.max_restarts),
                ("--restart-budget", args.restart_budget),
                ("--restart-backoff", args.restart_backoff),
            )
            if value is not None
        ]
        if pool_only:
            raise TargetError(
                f"{', '.join(pool_only)}: process-level options of the "
                f"worker pool; requires --workers N"
            )
    try:
        # Single-process runs need the parent registry live for the
        # published snapshots; sharded workers enable their own.
        live_local = telemetry is not None and engine is None
        with collecting() if live_local else _nullcontext():
            summary = run_soak(
                config,
                engine=engine,
                telemetry=telemetry,
                trace_writer=trace_writer,
            )
    finally:
        _finish_telemetry(
            args, telemetry, server, trace_writer, announce=not args.json
        )
    text = json.dumps(summary, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    if args.json:
        print(text)
    else:
        print(render_summary(summary))
        if args.out:
            print(f"wrote JSON summary to {args.out}")
    return 0 if summary["ok"] else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Read a live ``/stats.json`` endpoint or a saved snapshot file."""
    from repro.obs.telemetry import fetch_snapshot, render_stats

    try:
        snapshot = fetch_snapshot(args.source, timeout=args.timeout)
    except OSError as exc:
        print(f"error[stats-unreachable]: {args.source}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_stats(snapshot))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Compile with tracing always on and print the per-pass table."""
    from repro.lib.catalog import COMPOSITIONS, EXTRA_COMPOSITIONS
    from repro.lib.loader import load_module_source

    tracer = Tracer(enabled=True)
    options = CompilerOptions(
        target=args.target, optimize_mats=args.optimize
    )
    compiler = Up4Compiler(options, tracer=tracer)
    with collecting():
        name = None
        if len(args.modules) == 1 and not Path(args.modules[0]).suffix:
            name = args.modules[0]
            recipe = COMPOSITIONS.get(name) or EXTRA_COMPOSITIONS.get(name)
            if recipe is None:
                from repro.errors import CompileError

                known = ", ".join(sorted({*COMPOSITIONS, *EXTRA_COMPOSITIONS}))
                raise CompileError(
                    f"unknown composition {name!r}; known: {known} "
                    f"(or pass .up4 module files, main first)"
                )
            modules = [
                compiler.frontend(load_module_source(m), f"{m}.up4")
                for m in recipe
            ]
        else:
            modules = _read_modules([Path(p) for p in args.modules], compiler)
        result = compiler.compile_modules(modules[0], modules[1:])
        composed = result.composed
        if args.packets and not args.optimize:
            # The executors run the shrunk program (``make_pipeline``);
            # run the pass under the tracer so the table shows it.
            composed = compiler.shrink(composed)
        behavior = None
        if args.trace_out and args.workers:
            raise TargetError(
                "--trace-out requires a single-process run (no --workers)"
            )
        telemetry, server, trace_writer = _setup_telemetry(args)
        try:
            if args.packets:
                behavior = _run_profile_soak(
                    args,
                    composed,
                    # A catalog name seeds the stream `repro soak` sees.
                    name or composed.name,
                    telemetry,
                    trace_writer,
                )
        finally:
            _finish_telemetry(
                args, telemetry, server, trace_writer,
                announce=not args.json,
            )

    if args.json:
        payload = {
            "name": result.composed.name,
            "target": args.target,
            "trace": tracer.to_dicts(),
            "total_ms": tracer.total_ms(),
        }
        if behavior is not None:
            payload["behavior"] = behavior
        if args.metrics is not None and args.metrics != "-":
            Path(args.metrics).write_text(METRICS.to_json() + "\n")
            payload["metrics_file"] = args.metrics
        else:
            payload["metrics"] = METRICS.snapshot()
        print(json.dumps(payload, indent=2))
        return 0

    print(f"profile of {result.composed.name!r} --target {args.target}")
    print()
    print(tracer.render_table())
    if behavior is not None:
        lookups = behavior["lookups"]
        strategies = ", ".join(
            f"{n} {s}" for s, n in sorted(behavior["table_strategies"].items())
        )
        print()
        print(
            f"behavioral run: {behavior['packets']} packets -> "
            f"{behavior['outputs']} outputs "
            f"({behavior['pkts_per_sec']:.0f} pkt/s)"
        )
        if "workers" in behavior:
            print(
                f"  workers: {behavior['workers']} "
                f"({behavior['shard_policy']})"
            )
        for reason, count in behavior["drops_by_reason"].items():
            print(f"  drop[{reason}]: {count}")
        print(f"  digest: {behavior['digest']}")
        print(
            f"  table lookups: indexed={lookups['indexed']} "
            f"scan={lookups['scan']} hits={lookups['hits']} "
            f"misses={lookups['misses']}"
        )
        print(f"  lookup strategies: {strategies}")
        for name, info in sorted(behavior.get("tables", {}).items()):
            events = ", ".join(
                f"{metric} {count}"
                for metric, count in sorted(info["index_events"].items())
            )
            print(
                f"    {name}: {info['strategy']}, {info['entries']} entries"
                + (f"; {events}" if events else "")
            )
        source = [
            METRICS.gauge(f"codegen.{gauge}")
            for gauge in ("source_lines", "dispatch_arms", "locals")
        ]
        if source[0] is not None:
            print(
                "  generated source: {:.0f} lines, {:.0f} action arms, "
                "{:.0f} locals".format(*source)
            )
    if args.metrics is not None:
        if args.metrics == "-":
            print()
            print(METRICS.to_json())
        else:
            Path(args.metrics).write_text(METRICS.to_json() + "\n")
            print(f"\nwrote {len(METRICS)} metrics to {args.metrics}")
    return 0


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------
_OPTIMIZE_HELP = (
    "§8.1 on the compile path: drop dead byte-stack copies, then elide "
    "trivial synthesized MATs.  Not the default because elision removes "
    "tables, hence `table:` fault sites and table trace events (soak "
    "digests under faults change); dead-copy removal alone is always "
    "applied to the behavioral executors"
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="µP4C — the µP4 compiler (SIGCOMM 2020 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="compile one µP4 module to µP4-IR JSON (Fig. 4a)"
    )
    p_compile.add_argument("module", help=".up4 source file")
    p_compile.add_argument("-o", "--output", help="write IR here")
    p_compile.set_defaults(func=cmd_compile)

    p_build = sub.add_parser(
        "build", help="link modules and build for a target (Fig. 4b)"
    )
    p_build.add_argument(
        "modules", nargs="+", help="main module first, then libraries "
        "(.up4 source or .json µP4-IR)"
    )
    p_build.add_argument("--target", choices=("v1model", "tna"), default="v1model")
    p_build.add_argument("--monolithic", action="store_true")
    p_build.add_argument("--optimize", action="store_true",
                         help=_OPTIMIZE_HELP)
    p_build.add_argument("--no-align", action="store_true",
                         help="disable the TNA field-alignment pass (§6.3)")
    p_build.add_argument("--no-split", action="store_true",
                         help="disable the assignment-split pass (§6.3)")
    p_build.add_argument("--report", action="store_true",
                         help="print the TNA resource report")
    p_build.add_argument("-o", "--output",
                         help="write generated code (v1model) or the "
                         "resource report (tna) here")
    _add_obs_flags(p_build)
    p_build.set_defaults(func=cmd_build)

    p_arch = sub.add_parser("arch", help="describe the µPA logical architecture")
    p_arch.set_defaults(func=cmd_arch)

    p_lib = sub.add_parser("library", help="list library modules and compositions")
    p_lib.set_defaults(func=cmd_library)

    p_eval = sub.add_parser("eval", help="regenerate the evaluation tables")
    _add_obs_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_profile = sub.add_parser(
        "profile",
        help="compile with pass tracing on and print a per-pass "
        "time/size table",
    )
    p_profile.add_argument(
        "modules",
        nargs="+",
        help="a catalog composition name (P1–P8) or module files "
        "(main first, then libraries)",
    )
    p_profile.add_argument(
        "--target", choices=("v1model", "tna"), default="tna"
    )
    p_profile.add_argument("--optimize", action="store_true",
                           help=_OPTIMIZE_HELP)
    p_profile.add_argument(
        "--packets", type=int, default=0, metavar="N",
        help="also run an N-packet fault-free routable soak of the "
        "compiled program and report its rate, digest and table-lookup "
        "counters (indexed vs. scan)",
    )
    p_profile.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the --packets soak over N worker processes "
        "(switch replicas) and merge the lookup counters",
    )
    p_profile.add_argument(
        "--shard-policy", choices=("flow-hash", "round-robin"),
        default="flow-hash",
        help="how --workers assigns packets to shards (default: flow-hash)",
    )
    p_profile.add_argument(
        "--exec", choices=EXEC_BACKENDS, default=DEFAULT_EXEC_BACKEND,
        help="execution backend for the --packets soak: "
        f"{', '.join(EXEC_BACKENDS)} (default: {DEFAULT_EXEC_BACKEND})",
    )
    p_profile.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        metavar="FILE",
        help="also print (or write to FILE) the metrics JSON snapshot",
    )
    p_profile.add_argument("--json", action="store_true",
                           help="emit spans and metrics as one JSON object")
    _add_live_flags(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_soak = sub.add_parser(
        "soak",
        help="push randomized + fault-injected packets through compiled "
        "compositions, asserting containment and exact drop accounting",
    )
    p_soak.add_argument(
        "--programs", default="P4,P7", metavar="LIST",
        help="comma-separated catalog compositions (default: P4,P7)",
    )
    p_soak.add_argument("--packets", type=int, default=50_000, metavar="N",
                        help="packets per program (default: 50000)")
    p_soak.add_argument("--seed", type=int, default=1234,
                        help="RNG seed for packets and fault injection")
    p_soak.add_argument(
        "--fault-rate", type=float, default=0.1, metavar="R",
        help="base injected-fault rate in [0,1] (default: 0.1; 0 disables)",
    )
    p_soak.add_argument(
        "--fault-spec", metavar="FILE",
        help="JSON FaultPlan spec {\"seed\": ..., \"sites\": {site: rate}} "
        "overriding --fault-rate (sites: corrupt, truncate, table[:name], "
        "extern[:name], buffer)",
    )
    p_soak.add_argument("--mode", choices=("micro", "mono"), default="micro")
    p_soak.add_argument(
        "--traffic", choices=("mixed", "routable"), default="mixed",
        help="packet mix: hostile fuzz corpus (mixed, default) or "
        "well-formed fast-path traffic (routable)",
    )
    p_soak.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan each program's stream over N worker processes "
        "(switch replicas) fed by the parent over shared-memory rings; "
        "the merged digest is a pure function of "
        "(seed, workers, shard-policy)",
    )
    p_soak.add_argument(
        "--shard-policy", choices=("flow-hash", "round-robin"),
        default="flow-hash",
        help="how --workers assigns packets to shards (default: flow-hash)",
    )
    p_soak.add_argument(
        "--exec", choices=EXEC_BACKENDS, default=DEFAULT_EXEC_BACKEND,
        help="execution backend (interp default); the verdict-stream "
        "digest is backend-independent by construction",
    )
    p_soak.add_argument(
        "--strict", action="store_true",
        help="disable containment: re-raise the first per-packet fault",
    )
    p_soak.add_argument("--out", metavar="FILE",
                        help="also write the JSON summary to FILE")
    p_soak.add_argument("--json", action="store_true",
                        help="print the JSON summary instead of text")
    _add_live_flags(p_soak)
    p_soak.add_argument(
        "--publish-interval", type=float, default=0.5, metavar="S",
        help="seconds between live telemetry publishes from each worker "
        "(default: 0.5; only active with --stats-port/--metrics-out)",
    )
    p_soak.add_argument(
        "--flight-recorder", type=int, default=64, metavar="N",
        help="keep the last N verdicts per shard for post-mortem dumps "
        "on uncaught escapes or ledger mismatch (default: 64; 0 disables)",
    )
    p_soak.add_argument(
        "--batch-lanes", type=int, default=DEFAULT_BATCH_LANES, metavar="N",
        help="lanes per SoA batch handed to the switch "
        f"(default: {DEFAULT_BATCH_LANES}); "
        "verdicts are batch-boundary-independent so this tunes "
        "throughput without moving the digest",
    )
    p_soak.add_argument(
        "--chaos", action="append", default=[], metavar="SPEC",
        help="inject a process-level fault into a pool worker (repeatable; "
        "requires --workers): kill:shard=K@pkt=N (SIGKILL at dispatch "
        "position N), stop:shard=K@pkt=N[@resume=S] (SIGSTOP, SIGCONT "
        "after S seconds), stall:shard=K@pkt=N[@for=S][@attempt=A] "
        "(worker sleeps S seconds before packet N); the supervised pool "
        "must still reproduce the undisturbed digest",
    )
    p_soak.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="supervised restarts allowed per shard per run before the "
        "shard is abandoned (default: 2; 0 restores fail-fast)",
    )
    p_soak.add_argument(
        "--restart-budget", type=int, default=None, metavar="N",
        help="total supervised restarts allowed across all shards per "
        "run (default: 8)",
    )
    p_soak.add_argument(
        "--restart-backoff", type=float, default=None, metavar="S",
        help="base backoff before the first restart of a shard; doubles "
        "per restart, deterministically jittered from the seed "
        "(default: 0.1)",
    )
    p_soak.set_defaults(func=cmd_soak)

    p_stats = sub.add_parser(
        "stats",
        help="read a live telemetry endpoint (/stats.json) or a saved "
        "snapshot file and render it",
    )
    p_stats.add_argument(
        "source",
        help="URL, host:port, bare port (assumes 127.0.0.1), or a "
        "JSON snapshot file written by --metrics-out",
    )
    p_stats.add_argument("--timeout", type=float, default=5.0, metavar="S",
                         help="HTTP timeout in seconds (default: 5)")
    p_stats.add_argument("--json", action="store_true",
                         help="print the raw snapshot JSON instead of text")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    json_mode = bool(getattr(args, "json", False))
    try:
        return args.func(args)
    except KeyboardInterrupt:
        if json_mode:
            print(
                json.dumps(
                    {
                        "ok": False,
                        "error": "interrupted",
                        "code": "interrupted",
                        "exit_code": EXIT_INTERRUPTED,
                    },
                    indent=2,
                )
            )
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        if json_mode:
            print(json.dumps({"ok": False, **exc.to_dict()}, indent=2))
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[io-error]: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 — last-resort diagnostics
        traceback.print_exc()
        print(
            "error[internal]: unexpected exception (this is a bug)",
            file=sys.stderr,
        )
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
