"""Command-line interface: the estimator and friends without Python.

The paper's estimator was a tool handed to customers; this CLI is the
equivalent front door::

    python -m repro estimate --rows 512 --columns 16 --bits 32
    python -m repro shmoo --defect rail-bridge --resistance 240e3
    python -m repro venn --devices 11000 --seed 1105
    python -m repro plan --target-dpm 50
    python -m repro report
    python -m repro lint --format json netlist:demo-broken
    python -m repro campaign run --checkpoint ck.json --sites 2000
    python -m repro campaign resume ck.json
    python -m repro experiment run --devices 10000000 --workers 2
    python -m repro campaign status ck.json
    python -m repro serve --db coverage.json --port 8765

Every subcommand prints the same text artefacts the library's
benchmarks assert on.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.circuit.technology import CMOS018
from repro.memory.geometry import VEQTOR4_INSTANCE, MemoryGeometry


def _checked(cast, ok, requirement: str):
    """An argparse ``type=`` that parses with ``cast`` and rejects
    values for which ``ok`` is false ("must be <requirement>")."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid int value"
    return parse


_positive_int = _checked(int, lambda v: v > 0, "positive")
_positive_float = _checked(float, lambda v: v > 0, "positive")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
_non_negative_float = _checked(float, lambda v: v >= 0, "non-negative")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_port = _checked(int, lambda v: 0 <= v <= 65535, "in 0-65535")


def _shard_devices(text: str) -> int:
    """``--shard-devices``: shards group whole RNG blocks."""
    from repro.experiment.streaming.plan import DEFAULT_BLOCK_DEVICES

    return _checked(
        int, lambda v: v > 0 and v % DEFAULT_BLOCK_DEVICES == 0,
        f"a positive multiple of the {DEFAULT_BLOCK_DEVICES}-device "
        "RNG block")(text)


_shard_devices.__name__ = "int"


def _output_file(text: str) -> str:
    """``--save-db`` / ``--journal``: refused up front when the path is
    an existing directory or its parent directory does not exist, so no
    run is spent before the final write fails."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(
            f"is a directory, not a file: {text}")
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"parent directory does not exist: {parent}")
    return text


def _march_test(name: str) -> str:
    """``--test``: a library march test name, refused before any run."""
    from repro.march.library import get_test

    try:
        get_test(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return name


def _worker_fault(text: str) -> tuple[int, int]:
    """``--chaos-worker-* SHARD[:TIMES]``: a shard index and how many
    of its dispatches fail (default 1)."""
    index_text, _, times_text = text.partition(":")
    try:
        index, times = int(index_text), int(times_text or 1)
    except ValueError:
        index = times = -1
    if index < 0 or times < 1:
        raise argparse.ArgumentTypeError(
            "must be SHARD[:TIMES] with integers SHARD >= 0 and "
            f"TIMES >= 1, got {text}")
    return index, times


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table1
    from repro.core.flow import MemoryTestFlow

    geometry = MemoryGeometry(args.rows, args.columns, args.bits,
                              args.blocks)
    result = MemoryTestFlow(geometry, n_sites=args.sites).run()
    report = result.bridge_report
    print(f"memory: {geometry}")
    print(f"yield:  {100 * report.yield_fraction:.2f} %\n")
    print(render_table1(report, compare_paper=not args.no_paper))
    print(f"\nDPM ratio Vmax/VLV: {report.dpm_ratio('Vmax', 'VLV'):.1f}x")
    if args.save_db:
        result.database.save(args.save_db)
        print(f"coverage database written to {args.save_db}")
    return 0


_DEFECT_PRESETS = {
    "rail-bridge": ("bridge", "cell_node_rail"),
    "node-bridge": ("bridge", "cell_node_node"),
    "bitline-bridge": ("bridge", "bitline_bitline"),
    "decoder-open": ("open", "decoder_input"),
    "bitline-open": ("open", "bitline_segment"),
    "periphery-open": ("open", "periphery_path"),
    "pullup-open": ("open", "cell_pullup"),
}


def _cmd_shmoo(args: argparse.Namespace) -> int:
    from repro.defects.behavior import DefectBehaviorModel
    from repro.defects.models import BridgeSite, Defect, DefectKind, OpenSite
    from repro.march.library import get_test
    from repro.memory.sram import Sram
    from repro.tester.ate import VirtualTester
    from repro.tester.shmoo import (
        ShmooRunner,
        default_period_axis,
        default_voltage_axis,
    )

    bus = None
    if args.journal:
        from repro.obs.bus import EventBus

        bus = EventBus(args.journal,
                       meta={"tool": "shmoo", "test": args.test,
                             "defect": args.defect or "fault-free"})
    defects = []
    if args.defect:
        if args.defect not in _DEFECT_PRESETS:
            print(f"unknown defect preset {args.defect!r}; choices: "
                  f"{sorted(_DEFECT_PRESETS)}", file=sys.stderr)
            return 2
        kind_name, site_name = _DEFECT_PRESETS[args.defect]
        kind = DefectKind(kind_name)
        site = (BridgeSite(site_name) if kind is DefectKind.BRIDGE
                else OpenSite(site_name))
        defects.append(Defect(kind, site, args.resistance, polarity=1))

    sram = Sram(MemoryGeometry(8, 2, 4), CMOS018)
    runner = ShmooRunner(VirtualTester(DefectBehaviorModel(CMOS018)),
                         get_test(args.test))
    title = (f"{args.defect} R={args.resistance:g} ohm" if args.defect
             else "fault-free")
    plot = runner.run(sram, defects, default_voltage_axis(),
                      default_period_axis(), title, bus=bus)
    print(plot.render())
    if bus is not None:
        print(f"run journal: {args.journal} ({len(bus.events)} events)")
    stats = runner.last_stats
    print(f"boundary trace: {stats.tester_invocations} tester "
          f"invocations for {stats.grid_cells} cells "
          f"({stats.crosscheck_invocations} on the consistency sample"
          + (", exhaustive refill triggered" if stats.fallback else "")
          + ")")
    return 0


def _cmd_venn(args: argparse.Namespace) -> int:
    from repro.analysis.figures import render_venn_comparison
    from repro.experiment.classify import StressClassifier
    from repro.experiment.population import PopulationGenerator, PopulationSpec
    from repro.experiment.venn import PAPER_VENN, VennCounts

    diagnostician = None
    if args.diagnose:
        from repro.experiment.diagnosis import LotDiagnostician

        diagnostician = LotDiagnostician()
    spec = PopulationSpec(n_devices=args.devices, seed=args.seed)
    acc = StressClassifier().classify(PopulationGenerator(spec).generate(),
                                      diagnostician)
    venn = VennCounts.from_experiment(acc)
    print(f"lot: {args.devices} devices (seed {args.seed}); "
          f"standard fails {acc.standard_fails}")
    print(render_venn_comparison(venn, PAPER_VENN))
    if args.diagnose:
        print()
        print("\n".join(acc.render_hints()))
    return 0


def _experiment_injector(args: argparse.Namespace):
    """The ``--chaos-worker-*`` fault injector (``None`` when off).

    Raises:
        ValueError: a flag this run cannot honour (one-line message).
    """
    flags = {"worker.exit": args.chaos_worker_exit,
             "worker.hang": args.chaos_worker_hang}
    if not any(flags.values()):
        return None
    if args.workers < 2:
        raise ValueError("--chaos-worker-* needs --workers 2 or more: "
                         "a serial run has no worker to kill")
    from repro.experiment.streaming.plan import (
        DEFAULT_SHARD_DEVICES,
        ShardPlan,
    )
    from repro.runner.chaos import FaultInjector

    shards = ShardPlan(args.devices, shard_devices=(
        args.shard_devices or DEFAULT_SHARD_DEVICES)).shards()
    tables: dict[str, dict[str, int]] = {}
    for site, faults in flags.items():
        for index, times in faults:
            if index >= len(shards):
                raise ValueError(
                    f"--chaos-worker-*: shard index {index} out of "
                    f"range (plan has {len(shards)} shards)")
            tables.setdefault(site, {})[shards[index].unit_id] = times
    return FaultInjector(worker_faults=tables)


def _cmd_experiment_run(args: argparse.Namespace) -> int:
    from repro.defects.distribution import DefectDensity
    from repro.experiment.streaming import (
        StreamingExperiment,
        StreamingRunner,
    )

    try:
        engine = StreamingExperiment(
            n_devices=args.devices, seed=args.seed,
            density=DefectDensity(d0_per_cm2=args.d0,
                                  bridge_fraction=args.bridge_fraction),
            shard_devices=args.shard_devices,
            injector=_experiment_injector(args), diagnose=args.diagnose)
        runner = StreamingRunner(
            engine, checkpoint_path=args.checkpoint,
            unit_deadline=args.unit_deadline, workers=args.workers,
            journal=args.journal)
    except ValueError as exc:
        print(f"repro experiment run: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    result = _run_checkpointed(runner.run, "repro experiment run")
    if result is None:
        return 2
    shards = len(engine.plan.shards())
    print(f"experiment complete: {args.devices} devices across "
          f"{shards} shard(s) ({result.resumed_shards} resumed from "
          f"checkpoint, {result.executed_shards} executed"
          + (f" across {args.workers} workers" if args.workers > 1 else "")
          + ")")
    print(result.render())
    if result.quarantine:
        print(f"poisoned shards: {len(result.quarantine)}")
    stats = result.supervisor_stats
    if stats is not None and any(stats.values()):
        print("pool supervision: "
              f"worker losses {stats['worker_losses']}, "
              f"rebuilds {stats['rebuilds']}, "
              f"redispatched {stats['redispatched_units']}, "
              f"poison units {stats['poison_units']}")
    if args.journal:
        print(f"run journal: {args.journal}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.testplan import JointCoverageTable, TestPlanOptimizer
    from repro.march.library import get_test
    from repro.stress import production_conditions

    table = JointCoverageTable(VEQTOR4_INSTANCE, CMOS018,
                               production_conditions(CMOS018),
                               n_samples=args.samples)
    optimizer = TestPlanOptimizer(table, get_test(args.test))
    print("time/DPM Pareto front:")
    for plan in optimizer.pareto_front():
        print(f"  {plan}")
    if args.target_dpm is not None:
        plan = optimizer.cheapest_meeting(args.target_dpm)
        verdict = plan if plan else "unreachable with this suite"
        print(f"\ncheapest plan meeting {args.target_dpm:g} DPM: {verdict}")
    return 0


#: Default ``repro lint`` targets: every library march test, the two
#: transistor-level netlist builders and the paper's production suite.
_DEFAULT_LINT_TARGETS = ("march:all", "netlist:cell", "netlist:decoder",
                         "plan:production")


def _lint_netlist_target(kind: str, config):
    from repro.lint import lint_netlist
    from repro.memory.cell import SixTCell
    from repro.memory.decoder import build_decoder_netlist

    vdd = CMOS018.vdd_nominal
    if kind == "cell":
        netlist = SixTCell(CMOS018).standalone_netlist(vdd, 1)
    elif kind == "decoder":
        netlist = build_decoder_netlist(CMOS018, vdd)
    elif kind == "demo-broken":
        from repro.lint.demo import demo_broken_netlist

        netlist = demo_broken_netlist(CMOS018)
    else:
        raise ValueError(
            f"unknown netlist target {kind!r}; "
            "choices: cell, decoder, demo-broken")
    return [lint_netlist(netlist, CMOS018, config, f"netlist:{kind}")]


def _lint_march_target(name: str, config):
    from repro.lint import lint_march
    from repro.march.library import STANDARD_TESTS, get_test

    if name == "all":
        return [lint_march(t, config, f"march:{n}")
                for n, t in STANDARD_TESTS.items()]
    return [lint_march(get_test(name), config, f"march:{name}")]


def _lint_code_target(paths, config):
    from repro.lint.code import lint_code_paths

    return lint_code_paths(list(paths) or ["src/repro"], config)


def _lint_plan_target(suite: str, config, args):
    from repro.lint import lint_plan
    from repro.stress import production_conditions, standard_conditions

    if suite == "production":
        conditions = production_conditions(CMOS018)
    elif suite == "standard":
        conditions = standard_conditions(CMOS018)
    else:
        raise ValueError(f"unknown plan target {suite!r}; "
                         "choices: production, standard")
    plans = None
    if args.target_dpm is not None:
        import itertools

        from repro.core.testplan import JointCoverageTable, TestPlanOptimizer
        from repro.march.library import get_test

        # Coverage is measured against the full production suite's
        # detectable-defect universe, so a reduced suite (plan:standard)
        # honestly shows the defects its subsets can never catch.
        table = JointCoverageTable(VEQTOR4_INSTANCE, CMOS018,
                                   production_conditions(CMOS018),
                                   n_samples=args.samples)
        optimizer = TestPlanOptimizer(table, get_test(args.test))
        names = list(conditions)
        plans = [optimizer.evaluate(subset)
                 for r in range(1, len(names) + 1)
                 for subset in itertools.combinations(names, r)]
    return [lint_plan(conditions, CMOS018, plans, args.target_dpm, config,
                      f"plan:{suite}")]


def _split_rule_tokens(chunks) -> list[str]:
    """Flatten repeatable comma-separated rule-ID option values."""
    return [token.strip() for chunk in chunks for token in chunk.split(",")
            if token.strip()]


def _cmd_lint(args: argparse.Namespace) -> int:
    import repro.lint.code  # noqa: F401  (registers the ``code`` pack)
    from repro.lint import (
        LintConfig,
        all_rules,
        combined_exit_code,
        render_json,
        render_text,
    )
    from repro.lint.core import expand_rule_selectors

    if args.list_rules:
        for r in all_rules():
            print(f"{r.rule_id}  [{r.default_severity}]  {r.title}")
        return 0

    config = LintConfig()
    try:
        for chunk in args.disable:
            config = config.disable(*[s.strip() for s in chunk.split(",")
                                      if s.strip()])
        ignore = _split_rule_tokens(args.ignore)
        if ignore:
            config = config.disable(*expand_rule_selectors(ignore))
        select = _split_rule_tokens(args.select)
        if select:
            config = config.select(*expand_rule_selectors(select))
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2

    reports = []
    targets = args.targets or list(_DEFAULT_LINT_TARGETS)
    index = 0
    while index < len(targets):
        target = targets[index]
        index += 1
        scheme, _, rest = target.partition(":")
        try:
            if scheme == "march":
                reports.extend(_lint_march_target(rest or "all", config))
            elif scheme == "netlist":
                reports.extend(_lint_netlist_target(rest, config))
            elif scheme == "plan":
                reports.extend(_lint_plan_target(rest or "production",
                                                 config, args))
            elif scheme == "code":
                # ``code:PATH`` is a single target; a bare ``code``
                # consumes every remaining argument as a path.
                paths = [rest] if rest else targets[index:]
                if not rest:
                    index = len(targets)
                reports.extend(_lint_code_target(paths, config))
            else:
                raise ValueError(
                    f"unknown lint target {target!r}; use march:<name|all>, "
                    "netlist:<cell|decoder|demo-broken>, "
                    "plan:<production|standard> or code [PATH ...]")
        except (KeyError, ValueError, OSError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) else exc
            print(f"repro lint: {message}", file=sys.stderr)
            return 2

    if args.format == "json":
        print(render_json(reports, strict=args.strict))
    else:
        print(render_text(reports, verbose=args.verbose))
    return combined_exit_code(reports, strict=args.strict)


# ----------------------------------------------------------------------
# repro campaign -- the resilient runner front door
# ----------------------------------------------------------------------
def _campaign_tech(name: str):
    from repro.circuit.technology import CMOS013, CMOS018

    techs = {"cmos018": CMOS018, "cmos013": CMOS013}
    if name not in techs:
        raise ValueError(f"unknown technology {name!r} in checkpoint; "
                         f"choices: {sorted(techs)}")
    return techs[name]


def _campaign_flow_from_meta(meta: dict):
    """Rebuild the flow and sweep plan a checkpoint fingerprint names."""
    from repro.core.flow import MemoryTestFlow
    from repro.defects.models import DefectKind
    from repro.memory.geometry import MemoryGeometry
    from repro.runner.campaign import SweepSpec
    from repro.stress import StressCondition

    geometry = MemoryGeometry(*meta["geometry"])
    flow = MemoryTestFlow(geometry, _campaign_tech(meta["tech"]),
                          n_sites=meta["n_sites"], seed=meta["seed"])
    specs = [
        SweepSpec.of(
            DefectKind(sweep["kind"]), sweep["resistances"],
            [StressCondition(name, vdd, period, temperature)
             for name, vdd, period, temperature in sweep["conditions"]])
        for sweep in meta["sweeps"]
    ]
    return flow, specs


def _run_checkpointed(run, command: str):
    """``run()``, or None after a one-line error on stderr when its
    checkpoint is corrupt, another run's or a directory (each raised
    while the checkpoint loads, before any evaluation)."""
    from repro.runner.checkpoint import (
        CheckpointCorruptError,
        CheckpointMismatchError,
    )

    try:
        return run()
    except (CheckpointCorruptError, CheckpointMismatchError,
            IsADirectoryError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _campaign_execute(flow, specs, args: argparse.Namespace) -> int:
    from repro.core.database import CoverageDatabase
    from repro.runner.evaluate import BEHAVIOR_SITE

    if args.chaos_rate:
        from repro.runner.chaos import FaultInjector

        flow.campaign.injector = FaultInjector(
            seed=args.chaos_seed, rates={BEHAVIOR_SITE: args.chaos_rate})
    injector = flow.campaign.injector
    runner = flow.make_runner(
        args.checkpoint, max_attempts=args.max_attempts,
        unit_deadline=args.unit_deadline, journal=args.journal)
    result = _run_checkpointed(lambda: runner.run(specs), "repro campaign")
    if result is None:
        return 2
    database = CoverageDatabase(result.records)
    print(f"campaign complete: {len(result.records)} records "
          f"({result.resumed_units} units resumed from checkpoint, "
          f"{result.executed_units} executed)")
    print(f"quarantined sites: {len(result.quarantine)} "
          f"(site-evaluation retries: {result.retry_stats.retries})")
    if injector is not None:
        stats = injector.stats().get(BEHAVIOR_SITE,
                                     {"calls": 0, "injected": 0})
        print(f"chaos: {stats['injected']} faults injected over "
              f"{stats['calls']} evaluations "
              f"(rate {args.chaos_rate:g}, seed {args.chaos_seed})")
    if result.batch_stats is not None:
        bs = result.batch_stats
        print(f"batch: {bs['model_invocations']} model invocations "
              f"over {bs['groups']} derived groups "
              f"({bs['batch_sites']} batch / "
              f"{bs['demoted_sites']} fallback sites, "
              f"{bs['crosscheck_mismatches']} cross-check mismatches)")
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    if args.journal:
        print(f"run journal: {args.journal} "
              f"(inspect with: repro report {args.journal})")
    if args.save_db:
        database.save(args.save_db)
        print(f"coverage database written to {args.save_db}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.core.flow import MemoryTestFlow
    from repro.memory.geometry import MemoryGeometry

    geometry = MemoryGeometry(args.rows, args.columns, args.bits,
                              args.blocks)
    flow = MemoryTestFlow(geometry, n_sites=args.sites, seed=args.seed)
    specs = flow.sweep_specs()
    return _campaign_execute(flow, specs, args)


def _load_campaign_checkpoint(path: str):
    """The checkpoint at ``path``, or None after a one-line error on
    stderr when it is missing or fails validation."""
    from repro.runner.checkpoint import (
        CampaignCheckpoint,
        CheckpointCorruptError,
    )

    try:
        return CampaignCheckpoint.load(path)
    except (OSError, CheckpointCorruptError) as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return None


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    ckpt = _load_campaign_checkpoint(args.checkpoint)
    if ckpt is None:
        return 2
    if ckpt.recovered_from_temp:
        print("note: checkpoint recovered from its .tmp sibling "
              "(crash between write and rename)")
    flow, specs = _campaign_flow_from_meta(ckpt.meta)
    return _campaign_execute(flow, specs, args)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.runner.units import plan_units

    ckpt = _load_campaign_checkpoint(args.checkpoint)
    if ckpt is None:
        return 2
    _, specs = _campaign_flow_from_meta(ckpt.meta)
    total = 0
    for spec in specs:
        total += len(plan_units(spec.kind, spec.resistances,
                                spec.conditions, start_index=total))
    status = ckpt.status(total_units=total)
    meta = status["meta"]
    rows, columns, bits, blocks = meta["geometry"]
    print(f"checkpoint: {args.checkpoint}")
    print(f"campaign:   {rows}x{columns}x{bits}x{blocks} {meta['tech']} "
          f"sites={meta['n_sites']} seed={meta['seed']}")
    print(f"progress:   {status['completed_units']}/{status['total_units']} "
          f"units complete ({status['remaining_units']} remaining)")
    print(f"quarantine: {status['quarantined_sites']} site(s)")
    if status["recovered_from_temp"]:
        print("note: recovered from the .tmp sibling")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal
    from pathlib import Path

    from repro.core.database import DatabaseCorruptError
    from repro.obs.metrics import MetricsRegistry
    from repro.service.app import EstimatorService, serve
    from repro.service.state import DatabaseSnapshot, ServiceState

    if args.db:
        db_path = Path(args.db)
    else:
        from repro.core.database import default_database_path

        db_path = default_database_path()
    try:
        snapshot = DatabaseSnapshot.load(db_path)
    except (OSError, DatabaseCorruptError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    bus = None
    if args.journal:
        from repro.obs.bus import EventBus

        bus = EventBus(args.journal,
                       meta={"tool": "serve", "etag": snapshot.etag})
    service = EstimatorService(ServiceState(snapshot, db_path),
                               cache_size=args.cache_size, bus=bus,
                               metrics=MetricsRegistry())

    async def _run() -> int:
        try:
            server = await serve(service, args.host, args.port)
        except OSError as exc:
            print(f"repro serve: cannot listen on {args.host}:"
                  f"{args.port}: {exc}", file=sys.stderr)
            return 2
        # SIGINT or SIGTERM closes the server, so the journal is flushed
        # even when the process inherited SIGINT as ignored.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        port = server.sockets[0].getsockname()[1]
        print(f"serving on http://{args.host}:{port}", flush=True)
        print(f"database: {db_path} ({len(snapshot.database)} records, "
              f"etag {snapshot.etag[:12]}...)", flush=True)
        async with server:
            await stop.wait()
        return 0

    rc = 0
    try:
        rc = asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        if bus is not None:
            bus.flush()
            print(f"run journal: {args.journal}")
    return rc


def _cmd_report(args: argparse.Namespace) -> int:
    if args.journal:
        from repro.obs.bus import JournalError, read_journal
        from repro.obs.report import build_report, render_json, render_text

        try:
            meta, events = read_journal(args.journal)
        except (OSError, JournalError) as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        report = build_report(meta, events)
        output = (render_json(report) if args.format == "json"
                  else render_text(report))
        print(output, end="")
        return 0
    from repro.analysis.report import full_report

    print(full_report(n_sites=args.sites, n_devices=args.devices))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory testing under different stress conditions "
                    "(DATE 2005) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate",
                       help="fault coverage / DPM for a memory geometry")
    p.add_argument("--rows", type=_positive_int, default=512, help="#X rows")
    p.add_argument("--columns", type=_positive_int, default=16,
                   help="#Y words/row")
    p.add_argument("--bits", type=_positive_int, default=32,
                   help="#B bits/word")
    p.add_argument("--blocks", type=_positive_int, default=1, help="#Z blocks")
    p.add_argument("--sites", type=_positive_int, default=3000,
                   help="IFA site-population size")
    p.add_argument("--no-paper", action="store_true",
                   help="omit the paper's reference numbers")
    p.add_argument("--save-db", metavar="PATH", type=_output_file,
                   help="write the coverage database as JSON")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("shmoo", help="render a (Vdd, period) shmoo plot")
    p.add_argument("--defect", choices=sorted(_DEFECT_PRESETS),
                   help="defect preset (omit for fault-free)")
    p.add_argument("--resistance", type=_positive_float, default=240e3,
                   help="defect resistance in ohms")
    p.add_argument("--test", type=_march_test, default="11N",
                   help="march test name")
    p.add_argument("--journal", metavar="PATH", default=None,
                   type=_output_file,
                   help="write a JSONL run journal of the sweep "
                        "(inspect with `repro report PATH`; see "
                        "docs/observability.md)")
    p.set_defaults(func=_cmd_shmoo)

    p = sub.add_parser("venn",
                       help="run the silicon-experiment simulation")
    p.add_argument("--devices", type=_positive_int, default=11000)
    p.add_argument("--seed", type=_non_negative_int, default=1105)
    p.add_argument("--diagnose", action="store_true",
                   help="bitmap-diagnose every interesting device")
    p.set_defaults(func=_cmd_venn)

    p = sub.add_parser(
        "experiment",
        help="streaming sharded experiment at 10^6-10^7 devices",
        description="Map-reduce the Veqtor4 virtual-silicon experiment "
                    "over block-substreamed shards: O(classes) memory, "
                    "checkpoint/resume, worker pools.  See "
                    "docs/performance.md.")
    esub = p.add_subparsers(dest="experiment_command", required=True)
    ep = esub.add_parser("run",
                         help="run (or resume) a streaming experiment")
    ep.add_argument("--devices", type=_positive_int, default=1_000_000,
                    help="population size")
    ep.add_argument("--seed", type=_non_negative_int, default=1105,
                    help="root RNG seed")
    ep.add_argument("--shard-devices", type=_shard_devices, default=None,
                    help="devices per shard (dispatch/checkpoint unit; "
                         "a multiple of the 4096-device RNG block; "
                         "results are shard-layout invariant)")
    ep.add_argument("--workers", type=_positive_int, default=1,
                    help="evaluation processes (1 = serial; results "
                         "are identical either way)")
    ep.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="checkpoint file, saved after every shard "
                         "(enables kill/resume)")
    ep.add_argument("--unit-deadline", type=_positive_float, default=None,
                    metavar="SECONDS",
                    help="wall-clock budget per shard; with --workers "
                         "> 1 the supervisor also declares a worker "
                         "hung after 4x this on one shard")
    ep.add_argument("--journal", metavar="PATH", default=None,
                    type=_output_file,
                    help="write a JSONL run journal (inspect with "
                         "`repro report PATH`)")
    ep.add_argument("--diagnose", action="store_true",
                    help="bitmap-diagnose interesting devices into "
                         "hint histograms")
    ep.add_argument("--d0", type=_positive_float, default=3.5,
                    help="defect density per cm^2")
    ep.add_argument("--bridge-fraction", type=_fraction, default=0.8,
                    help="fraction of defects that are bridges")
    ep.add_argument("--chaos-worker-exit", action="append", default=[],
                    type=_worker_fault, metavar="SHARD[:TIMES]",
                    help="kill the worker on the given shard index's "
                         "first TIMES dispatches (repeatable; needs "
                         "--workers 2 or more; rehearses the pool "
                         "supervisor)")
    ep.add_argument("--chaos-worker-hang", action="append", default=[],
                    type=_worker_fault, metavar="SHARD[:TIMES]",
                    help="hang the worker on the given shard index's "
                         "first TIMES dispatches (needs --workers 2 or "
                         "more and --unit-deadline)")
    ep.set_defaults(func=_cmd_experiment_run)

    p = sub.add_parser("plan", help="optimise the stress-condition plan")
    p.add_argument("--test", type=_march_test, default="11N",
                   help="march test name")
    p.add_argument("--samples", type=_positive_int, default=3000)
    p.add_argument("--target-dpm", type=_non_negative_float, default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "lint",
        help="static analysis of netlists, march tests and test plans",
        description="Run the repro.lint rule packs.  Exit codes: 0 clean, "
                    "1 warnings remain under --strict, 2 errors.")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="march:<name|all>, netlist:<cell|decoder|demo-"
                        "broken>, plan:<production|standard>, or "
                        "`code [PATH ...]` for the source-code "
                        "determinism/IO analyzer (paths default to "
                        "src/repro) "
                        f"(default: {' '.join(_DEFAULT_LINT_TARGETS)})")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors (exit 1)")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULES",
                   help="comma-separated rule IDs to suppress "
                        "(repeatable)")
    p.add_argument("--select", action="append", default=[],
                   metavar="RULES",
                   help="run only these rules: comma-separated IDs or "
                        "prefixes, e.g. DET003 or DET,IO (repeatable; "
                        "applies to every pack)")
    p.add_argument("--ignore", action="append", default=[],
                   metavar="RULES",
                   help="skip these rules: comma-separated IDs or "
                        "prefixes (repeatable; wins over --select)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--verbose", action="store_true",
                   help="also list clean targets in text output")
    p.add_argument("--target-dpm", type=_non_negative_float, default=None,
                   help="enable the PLAN003 reachability rule against "
                        "this DPM target")
    p.add_argument("--samples", type=_positive_int, default=400,
                   help="Monte-Carlo samples for the PLAN003 coverage "
                        "table")
    p.add_argument("--test", type=_march_test, default="11N",
                   help="march test used by the PLAN003 time/coverage "
                        "model")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "campaign",
        help="resilient coverage campaigns: run / resume / status",
        description="Run IFA coverage campaigns through the resilient "
                    "runner: crash-safe checkpoints, bounded retry, "
                    "per-site quarantine.  See "
                    "docs/robustness.md.")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(cp, with_checkpoint_flag: bool) -> None:
        if with_checkpoint_flag:
            cp.add_argument("--checkpoint", metavar="PATH", default=None,
                            help="checkpoint file (enables kill/resume)")
        else:
            cp.add_argument("checkpoint", metavar="CHECKPOINT",
                            help="checkpoint file of the campaign")
        cp.add_argument("--save-db", metavar="PATH", type=_output_file,
                        help="write the coverage database as JSON")
        cp.add_argument("--max-attempts", type=_positive_int, default=3,
                        help="retry attempts per site evaluation")
        cp.add_argument("--unit-deadline", type=_positive_float,
                        default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per work unit")
        cp.add_argument("--chaos-rate", type=_fraction, default=0.0,
                        help="inject behavioural faults at this rate "
                             "(soak testing; see scripts/soak.sh)")
        cp.add_argument("--chaos-seed", type=_non_negative_int, default=0,
                        help="fault-injection seed")
        cp.add_argument("--journal", metavar="PATH", default=None,
                        type=_output_file,
                        help="write a JSONL run journal of every unit, "
                             "retry and quarantine event "
                             "(default off = zero overhead; inspect "
                             "with `repro report PATH`; see "
                             "docs/observability.md)")

    cp = csub.add_parser("run", help="start a (checkpointed) campaign")
    cp.add_argument("--rows", type=_positive_int, default=512,
                    help="#X rows")
    cp.add_argument("--columns", type=_positive_int, default=16,
                    help="#Y words/row")
    cp.add_argument("--bits", type=_positive_int, default=32,
                    help="#B bits/word")
    cp.add_argument("--blocks", type=_positive_int, default=1,
                    help="#Z blocks")
    cp.add_argument("--sites", type=_positive_int, default=2000,
                    help="IFA site-population size")
    cp.add_argument("--seed", type=_non_negative_int, default=2005,
                    help="campaign seed")
    _campaign_common(cp, with_checkpoint_flag=True)
    cp.set_defaults(func=_cmd_campaign_run)

    cp = csub.add_parser("resume",
                         help="continue a killed campaign from its "
                              "checkpoint")
    _campaign_common(cp, with_checkpoint_flag=False)
    cp.set_defaults(func=_cmd_campaign_resume)

    cp = csub.add_parser("status", help="inspect a campaign checkpoint")
    cp.add_argument("checkpoint", metavar="CHECKPOINT",
                    help="checkpoint file of the campaign")
    cp.set_defaults(func=_cmd_campaign_status)

    p = sub.add_parser(
        "serve",
        help="run the estimator as an async HTTP/JSON service",
        description="Serve batch fault-coverage/DPM queries over a "
                    "pre-calculated coverage database: POST "
                    "/v1/estimate (batched geometries x kinds x "
                    "condition sets), POST /v1/reload (validated "
                    "hot-swap of the database file), GET /v1/health.  "
                    "Responses are byte-identical to in-process "
                    "estimator calls and cached under a "
                    "(database-fingerprint, canonical-request) key.  "
                    "See docs/service.md.")
    p.add_argument("--db", metavar="PATH", default=None,
                   help="coverage database to serve (default: the "
                        "shipped CMOS 0.18 um database); /v1/reload "
                        "re-reads this file")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (loopback by default)")
    p.add_argument("--port", type=_port, default=8765,
                   help="TCP port (0 = pick an ephemeral port and "
                        "print it)")
    p.add_argument("--cache-size", type=_non_negative_int, default=1024,
                   help="response-cache capacity in entries "
                        "(0 disables caching)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   type=_output_file,
                   help="write a JSONL run journal of every request, "
                        "cache hit and reload (inspect with `repro "
                        "report PATH`)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "report",
        help="full paper-vs-measured report, or render a run journal",
        description="Without arguments: the paper-vs-measured summary "
                    "report.  With a journal file (written by "
                    "`repro campaign run --journal` or `repro shmoo "
                    "--journal`): the run summary -- per-condition "
                    "units, retry/quarantine/demotion tables, service "
                    "requests.  See docs/observability.md.")
    p.add_argument("journal", nargs="?", metavar="JOURNAL", default=None,
                   help="JSONL run-journal file to summarise (omit for "
                        "the paper-vs-measured report)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="journal-report format (ignored without a "
                        "journal)")
    p.add_argument("--sites", type=_positive_int, default=4000)
    p.add_argument("--devices", type=_positive_int, default=11000)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
