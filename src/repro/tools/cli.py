"""Argument parsing and command implementations for ``repro.tools``."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..arm64.decoder import decode_word
from ..arm64.parser import parse_assembly
from ..core.options import (
    O0,
    O1,
    O2,
    O2_FENCE,
    O2_MASK,
    O2_NO_LOADS,
    RewriteOptions,
)
from ..engine import ENGINE_KINDS, EngineConfig, SpeculationConfig
from ..errors import ReproError, RewriteError
from ..core.verifier import VerifierPolicy, verify_elf
from ..elf.format import read_elf, write_elf
from ..emulator.costs import MACHINE_MODELS
from ..runtime.runtime import Runtime
from ..toolchain import compile_lfi, compile_native

__all__ = ["main"]

_LEVELS = {"O0": O0, "O1": O1, "O2": O2, "O2-noloads": O2_NO_LOADS,
           "O2-fence": O2_FENCE, "O2-mask": O2_MASK}


def _options_from(args) -> RewriteOptions:
    options = _LEVELS[args.opt_level]
    if getattr(args, "no_exclusives", False):
        options = options.with_(allow_exclusives=False)
    return options


def _engine_from(args) -> EngineConfig:
    """The :class:`EngineConfig` the shared ``--engine`` flags describe."""
    speculation = None
    if getattr(args, "speculation", False):
        speculation = SpeculationConfig(seed=args.spec_seed,
                                        window=args.spec_window)
    return EngineConfig(kind=args.engine_kind, speculation=speculation)


def _cmd_rewrite(args) -> int:
    from ..arm64.parser import parse_assembly
    from ..arm64.printer import print_assembly
    from ..core.rewriter import rewrite_program

    text = _read_text(args.input)
    try:
        result = rewrite_program(parse_assembly(text), _options_from(args))
    except RewriteError as exc:
        print(f"rewrite error: {exc}", file=sys.stderr)
        return 1
    _write_text(args.out, print_assembly(result.program))
    if args.stats:
        _print_guard_counts(result.stats)
    return 0


def _print_guard_counts(stats, file=None) -> None:
    """Guard sites by class — shared by ``rewrite`` and ``profile``."""
    counts = stats.guard_class_counts()
    line = " ".join(f"{name}={counts[name]}" for name in sorted(counts))
    print(f"guards: {line}", file=file if file is not None else sys.stderr)


def _cmd_compile(args) -> int:
    text = _read_text(args.input)
    try:
        if args.native:
            output = compile_native(text, bss_size=args.bss)
        else:
            output = compile_lfi(text, options=_options_from(args),
                                 bss_size=args.bss)
    except RewriteError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 1
    data = write_elf(output.elf)
    with open(args.output, "wb") as handle:
        handle.write(data)
    if output.rewrite is not None:
        stats = output.rewrite.stats
        print(f"{stats.input_instructions} -> {stats.output_instructions} "
              f"instructions (+{100 * stats.code_size_overhead:.1f}%)",
              file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    with open(args.input, "rb") as handle:
        image = read_elf(handle.read())
    policy = VerifierPolicy(
        allow_exclusives=not args.no_exclusives,
        sandbox_loads=not args.no_loads,
    )
    result = verify_elf(image, policy)
    print(f"{result.instructions} instructions, "
          f"{result.bytes_verified} bytes")
    if result.ok:
        print("OK")
        return 0
    for violation in result.violations[: args.max_errors]:
        print(str(violation), file=sys.stderr)
    print(f"FAILED: {len(result.violations)} violation(s)", file=sys.stderr)
    return 1


def _cmd_run(args) -> int:
    with open(args.input, "rb") as handle:
        image = read_elf(handle.read())
    model = MACHINE_MODELS.get(args.machine) if args.machine else None
    runtime = Runtime(model=model, engine=_engine_from(args))
    policy = VerifierPolicy(sandbox_loads=not args.no_loads)
    proc = runtime.spawn(image, verify=not args.unsafe_no_verify,
                         policy=policy)
    code = runtime.run_until_exit(proc, max_instructions=args.max_insts)
    sys.stdout.write(runtime.stdout_of(proc))
    if args.stats:
        print(f"[{runtime.machine.instret} instructions, "
              f"{runtime.cycles:.0f} cycles]", file=sys.stderr)
        print("[engine " + " ".join(
            f"{name}={value:.1f}" if isinstance(value, float)
            else f"{name}={value}"
            for name, value in runtime.machine.engine_stats().items()) + "]",
            file=sys.stderr)
    for fault in runtime.faults:
        print(f"[fault: pid {fault.pid} {fault.kind}: {fault.detail}]",
              file=sys.stderr)
    return code


def _cmd_fuzz(args) -> int:
    from ..fuzz import FuzzCampaign, replay_corpus
    from ..fuzz.genasm import GenConfig

    lines: List[str] = []

    def emit(line: str) -> None:
        lines.append(line)
        if not args.quiet:
            print(line)

    findings = []
    if not args.skip_corpus:
        findings.extend(replay_corpus(args.corpus, log=emit))
    if args.budget > 0:
        campaign = FuzzCampaign(
            seed=args.seed, budget=args.budget,
            mutants_per_program=args.mutants,
            config=GenConfig(exclusives=not args.no_exclusives),
            corpus_dir=args.save_corpus,
            checkpoint_points=args.checkpoint_points,
            )
        findings.extend(campaign.run())
        for line in campaign.lines:
            emit(line)
    if args.out not in (None, "-"):
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    if findings:
        print(f"FAILED: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_prove(args) -> int:
    import json as _json

    from ..fuzz.corpus import save_entry
    from ..prove import (
        class_by_name,
        counterexample_entry,
        default_classes,
        nightly_classes,
        prove_class,
        render_reports,
        row_coverage,
    )

    if args.list:
        for cls in default_classes() + nightly_classes():
            tier = "default" if cls in default_classes() else "nightly"
            print(f"{cls.name:<18} space={cls.space():<12} [{tier}]")
        print("table rows (arm64.decoder.ENCODINGS) and the classes "
              "that reach them:")
        for name, mask, match, classes in row_coverage():
            print(f"  {name:<16} {mask:#010x}/{match:#010x}  "
                  f"{', '.join(classes) or '-- no class'}")
        return 0

    if args.classes:
        try:
            classes = [class_by_name(name) for name in args.classes]
        except KeyError as exc:
            raise ReproError(exc.args[0]) from None
    elif args.all:
        classes = default_classes() + nightly_classes()
    else:
        classes = default_classes()

    policies = {
        "sandbox": [VerifierPolicy()],
        "store-only": [VerifierPolicy(sandbox_loads=False)],
        "both": [VerifierPolicy(), VerifierPolicy(sandbox_loads=False)],
    }[args.policy]

    reports = []
    for cls in classes:
        for policy in policies:
            reports.append(prove_class(
                cls, policy=policy, mode=args.mode, limit=args.limit,
                cross_check=args.cross_check, probe=args.probe,
                seed=args.seed))

    if args.save_corpus:
        for report in reports:
            policy = (VerifierPolicy() if report.policy == "sandbox"
                      else VerifierPolicy(sandbox_loads=False))
            for cx in report.counterexamples:
                path = save_entry(counterexample_entry(cx, policy),
                                  args.save_corpus)
                print(f"saved {path}", file=sys.stderr)

    text = (_json.dumps([r.to_dict() for r in reports], indent=2,
                        sort_keys=True) + "\n"
            if args.json else render_reports(reports))
    _write_text(args.out, text)
    return 0 if all(r.ok for r in reports) else 1


def _spawn_workload(args, setup=None):
    """(runtime, proc, rewrite_stats) for an ELF path or ``--bench`` name.

    ``setup(runtime)`` runs before the spawn so observers attached there
    (tracer, profiler) see the process-lifecycle events too.
    """
    model = MACHINE_MODELS[args.machine]
    runtime = Runtime(model=model, engine=_engine_from(args))
    if setup is not None:
        setup(runtime)
    image, stats = _workload_image(args)
    policy = VerifierPolicy(sandbox_loads=not getattr(args, "no_loads", False))
    proc = runtime.spawn(image, verify=not args.unsafe_no_verify,
                         policy=policy)
    return runtime, proc, stats


def _cmd_trace(args) -> int:
    from ..obs import MetricsHub, Tracer, export_chrome_trace, validate_trace

    tracer = Tracer(sample_every=args.sample)
    hub = MetricsHub() if args.metrics else None

    def setup(runtime):
        tracer.attach(runtime)
        if hub is not None:
            hub.attach(tracer, runtime)

    runtime, proc, _ = _spawn_workload(args, setup=setup)
    code = runtime.run_until_exit(proc, max_instructions=args.max_insts)
    if hub is not None:
        hub.collect(runtime)
        with open(args.metrics, "w") as handle:
            handle.write(hub.snapshot())
    to_file = args.out not in (None, "-")
    text = export_chrome_trace(tracer.events,
                               path=args.out if to_file else None)
    if not to_file:
        sys.stdout.write(text)
    print(f"[{len(tracer.events)} events -> {args.out}]", file=sys.stderr)
    if args.validate:
        problems = validate_trace(text)
        for problem in problems[:10]:
            print(f"invalid trace: {problem}", file=sys.stderr)
        if problems:
            return 1
    return code


def _cmd_profile(args) -> int:
    from ..obs import GuardProfiler
    from ..perf.measure import overhead_pct

    profiler = GuardProfiler()
    runtime, proc, stats = _spawn_workload(args, setup=profiler.attach)
    code = runtime.run_until_exit(proc, max_instructions=args.max_insts)
    profiler.detach()
    lines: List[str] = []
    if stats is not None:
        counts = stats.guard_class_counts()
        lines.append("guards: " + " ".join(
            f"{name}={counts[name]}" for name in sorted(counts)))
    lines.append(profiler.report())
    total = profiler.total_cycles()
    lines.append(
        f"attributed {total:.1f} of "
        f"{runtime.machine.cycles - profiler.start_cycles:.1f} cycles")
    if args.bench:
        from ..perf.measure import native_variant, run_variant
        from ..workloads.spec import arena_bss_size, build_benchmark

        asm = build_benchmark(args.input, target_instructions=args.target)
        native = run_variant(asm, arena_bss_size(args.input),
                             native_variant(), MACHINE_MODELS[args.machine],
                             engine=_engine_from(args))
        overhead_cycles = runtime.machine.cycles - native.cycles
        lines.append(
            f"overhead vs native: "
            f"{overhead_pct(native.cycles, runtime.machine.cycles):+.2f}% "
            f"({overhead_cycles:+.1f} cycles)")
        decomposed = profiler.decompose_overhead(overhead_cycles)
        lines.append("decomposition (amortized; sums to the overhead):")
        for bucket in sorted(decomposed):
            lines.append(
                f"  {bucket:<8} "
                f"{100.0 * decomposed[bucket] / native.cycles:+6.2f}% "
                f"({decomposed[bucket]:+.1f} cycles)")
        standalone = sum(profiler.standalone.values())
        if standalone > 0:
            hidden = max(0.0, 1.0 - overhead_cycles / standalone)
            lines.append(
                f"guard cost hidden by overlap: {100.0 * hidden:.1f}% "
                f"of {standalone:.1f} standalone cycles")
    _write_text(args.out, "\n".join(lines) + "\n")
    return code


def _cmd_cluster(args) -> int:
    from ..cluster import Cluster

    images = _busy_images(args)
    distinct = len(images)
    with Cluster(workers=args.workers, warm_spawn=not args.cold,
                 engine=_engine_from(args)) as cluster:
        for i in range(args.jobs):
            cluster.submit(images[i % distinct])
        results = cluster.drain()
        report = cluster.metrics_report()
        fleet = cluster.fleet_report()
    codes = [r.exit_code for r in results]
    expected = [i % distinct for i in range(args.jobs)]
    print(f"[{args.jobs} jobs on {args.workers} worker(s): "
          f"warm {fleet['warm_hits']}/{fleet['warm_hits'] + fleet['warm_misses']}, "
          f"restarts {fleet['restarts']}]", file=sys.stderr)
    _write_text(args.out, report)
    if codes != expected:
        print(f"FAILED: exit codes {codes} != expected {expected}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import json as _json

    from ..obs import prometheus_exposition, validate_exposition
    from ..serve import (
        Gateway,
        demo_loads,
        demo_policies,
        load_config,
        render_report,
        run_loadgen,
    )

    if args.config:
        try:
            config = _json.loads(_read_text(args.config))
        except _json.JSONDecodeError as exc:
            raise ReproError(
                f"config {args.config}: {exc}") from None
        gateway_kwargs, policies, loads, duration = load_config(config)
    else:
        gateway_kwargs = {"lanes": 4, "checkpoint_interval": 2000}
        policies, loads, duration = demo_policies(), demo_loads(), 1.0
    if args.duration is not None:
        duration = args.duration
    if args.lanes is not None:
        gateway_kwargs["lanes"] = args.lanes

    gateway = Gateway(policies, seed=args.seed,
                      engine=_engine_from(args), **gateway_kwargs)
    results = run_loadgen(gateway, loads, duration, seed=args.seed)
    ok = sum(1 for r in results if r.status == "ok")
    print(f"[{len(results)} requests over {duration:g} virtual s on "
          f"{gateway_kwargs['lanes']} lane(s): {ok} ok, "
          f"{len(results) - ok} shed]", file=sys.stderr)
    _write_text(args.out, render_report(results, policies))
    if args.metrics_out:
        gateway.report()  # refresh the lane/queue gauges
        exposition = prometheus_exposition(gateway.ops)
        problems = validate_exposition(exposition)
        for problem in problems[:10]:
            print(f"invalid exposition: {problem}", file=sys.stderr)
        if problems:
            return 1
        with open(args.metrics_out, "w") as handle:
            handle.write(exposition)
    return 0


def _cmd_checkpoint(args) -> int:
    from ..checkpoint import Checkpoint, capture_job, restore_job

    image, _ = _workload_image(args)

    if args.restore:
        with open(args.restore, "rb") as handle:
            ckpt = Checkpoint.from_bytes(handle.read())
        runtime = Runtime(model=None, timeslice=args.timeslice,
                          engine=_engine_from(args))
        proc = restore_job(runtime, ckpt)
        runtime.run_bounded(proc, args.max_insts)
        sys.stdout.write(runtime.stdout_of(proc))
        print(f"[resumed at {ckpt.consumed_instructions}, exit "
              f"{proc.exit_code}, {proc.instructions} instructions total]",
              file=sys.stderr)
        return proc.exit_code or 0

    runtime = Runtime(model=None, timeslice=args.timeslice,
                      engine=_engine_from(args))
    proc = runtime.spawn(image)
    done = runtime.run_bounded(proc, args.point)
    ckpt = capture_job(runtime, proc,
                       consumed_instructions=runtime.machine.instret,
                       consumed_cycles=runtime.machine.cycles)
    blob = ckpt.to_bytes()
    state = "exited" if done else "paused"
    print(f"[{state} at {runtime.machine.instret} instructions: "
          f"{len(ckpt.procs)} process(es), {ckpt.total_pages} page(s), "
          f"{len(blob)} bytes, digest {ckpt.digest()[:16]}]",
          file=sys.stderr)
    if args.save:
        with open(args.save, "wb") as handle:
            handle.write(blob)
    if args.verify:
        from ..fuzz.differential import check_checkpoint

        findings = check_checkpoint(image, points=(args.point,),
                                    budget=args.max_insts,
                                    timeslice=args.timeslice)
        for finding in findings:
            print(finding.line(), file=sys.stderr)
        if findings:
            print(f"FAILED: {len(findings)} finding(s)", file=sys.stderr)
            return 1
        print("VERIFIED: split run byte-identical to the uninterrupted "
              "run", file=sys.stderr)
    return 0


def _cmd_migrate(args) -> int:
    from ..cluster import Cluster

    images = _busy_images(args)
    batch = [images[i % len(images)] for i in range(args.jobs)]

    def run(workers, migrate):
        with Cluster(workers=workers, seed=args.seed,
                     checkpoint_interval=args.interval,
                     engine=_engine_from(args)) as cluster:
            for program in batch:
                cluster.submit(program)
            if migrate:
                cluster.migrate(0, 1)
            results = cluster.drain()
            return ([r.deterministic_key() for r in results],
                    cluster.metrics_report(), cluster.fleet_report())

    reference, ref_report, _ = run(1, migrate=False)
    migrated, mig_report, fleet = run(max(2, args.workers), migrate=True)
    print(f"[{args.jobs} jobs, migrations {fleet['migrations']}, "
          f"checkpoints {fleet['checkpoints']}, "
          f"restores {fleet['restores']}]", file=sys.stderr)
    _write_text(args.out, mig_report)  # the verdict stays on stderr
    if (reference, ref_report) != (migrated, mig_report):
        print("FAILED: migrated batch diverged from the single-worker "
              "reference", file=sys.stderr)
        return 1
    print("VERIFIED: migrated batch byte-identical to the single-worker "
          "reference", file=sys.stderr)
    return 0


def _cmd_disasm(args) -> int:
    with open(args.input, "rb") as handle:
        image = read_elf(handle.read())
    for segment in image.segments:
        if not segment.flags & 0x1:
            continue
        data = bytes(segment.data)
        for offset in range(0, len(data) - len(data) % 4, 4):
            word = int.from_bytes(data[offset:offset + 4], "little")
            address = segment.vaddr + offset
            inst = decode_word(word, address)
            text = str(inst) if inst is not None else "<undecodable>"
            print(f"{address:10x}:  {word:08x}   {text}")
    return 0


def _workload_image(args):
    """(ELF image, rewrite stats or None) for an ELF path or a ``--bench``
    workload name, compiled at ``--target`` instructions."""
    if not args.bench:
        with open(args.input, "rb") as handle:
            return read_elf(handle.read()), None
    from ..workloads.spec import arena_bss_size, build_benchmark

    asm = build_benchmark(args.input, target_instructions=args.target)
    output = compile_lfi(asm, options=_options_from(args),
                         bss_size=arena_bss_size(args.input))
    return output.elf, output.rewrite.stats


def _busy_images(args) -> List[bytes]:
    """One ``busy_program`` ELF per ``--distinct`` value (at most
    ``--jobs``), each running ``--target`` instructions."""
    from ..workloads.rtlib import busy_program

    return [write_elf(compile_lfi(busy_program(value, args.target),
                                  options=_options_from(args)).elf)
            for value in range(max(1, min(args.distinct, args.jobs)))]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w") as handle:
        handle.write(text)


def _positive(kind):
    """An argparse type: a ``kind`` (int or float) greater than 0."""
    def parse(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in errors
    return parse


def _shared_parents():
    """The one spelling of the flags every analysis tool shares.

    ``rewrite``/``fuzz``/``trace``/``profile`` take the same ``--seed``,
    ``--out`` and ``--opt-level`` flags with the same defaults, built once
    here as argparse parent parsers (DESIGN.md §5).
    """
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--out", "--output", dest="out", default="-",
                     metavar="PATH",
                     help="output destination ('-' for stdout)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="seed for randomized stages (same seed -> "
                           "byte-identical output)")
    opt = argparse.ArgumentParser(add_help=False)
    opt.add_argument("-O", "--opt-level", dest="opt_level", default="O2",
                     choices=sorted(_LEVELS),
                     help="rewriter optimization level (paper §6.1)")
    opt.add_argument("--no-exclusives", action="store_true",
                     help="disallow LL/SC (Spectre hardening, §7.1)")
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--engine", dest="engine_kind",
                        default="superblock", choices=ENGINE_KINDS,
                        help="emulation engine for every runtime the "
                             "command creates")
    engine.add_argument("--speculation", action="store_true",
                        help="bounded-speculation emulator mode "
                             "(DESIGN.md §16); incompatible with per-step "
                             "probes (--probe, trace --sample)")
    engine.add_argument("--spec-seed", type=int, default=0, metavar="N",
                        help="branch predictor seed for --speculation")
    engine.add_argument("--spec-window", type=int, default=24, metavar="N",
                        help="max transient instructions per mispredict "
                             "window for --speculation")
    return out, seed, opt, engine


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="LFI toolchain: rewrite, compile, verify, run, disasm",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    OUT, SEED, OPT, ENGINE = _shared_parents()

    p = sub.add_parser("rewrite", parents=[OUT, SEED, OPT],
                       help="insert SFI guards into assembly")
    p.add_argument("input", help="GNU assembly file ('-' for stdin)")
    p.add_argument("--stats", action="store_true",
                   help="print guard-site counts by class to stderr")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("compile", parents=[OPT],
                       help="assembly -> sandbox ELF")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--bss", type=int, default=0,
                   help="extra zero-initialized memory (bytes)")
    p.add_argument("--native", action="store_true",
                   help="skip the rewriter (unsandboxed baseline)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify", help="statically verify an ELF")
    p.add_argument("input")
    p.add_argument("--no-exclusives", action="store_true")
    p.add_argument("--no-loads", action="store_true",
                   help="store-only isolation policy")
    p.add_argument("--max-errors", type=int, default=10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", parents=[ENGINE],
                       help="run an ELF in the LFI runtime")
    p.add_argument("input")
    p.add_argument("--machine", choices=sorted(MACHINE_MODELS),
                   help="enable the cycle model for this machine")
    p.add_argument("--unsafe-no-verify", action="store_true",
                   help="skip verification (trusted native code)")
    p.add_argument("--no-loads", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--max-insts", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "fuzz", parents=[OUT, SEED, OPT],
        help="differential fuzzing of the rewriter/verifier/emulator",
    )
    p.add_argument("--budget", type=int, default=100,
                   help="number of generated programs (0 = corpus only)")
    p.add_argument("--mutants", type=int, default=4,
                   help="mutants probed per generated program")
    p.add_argument("--corpus", default=None,
                   help="corpus directory to replay (default tests/corpus)")
    p.add_argument("--skip-corpus", action="store_true",
                   help="skip the corpus replay before the campaign")
    p.add_argument("--save-corpus", default=None, metavar="DIR",
                   help="persist shrunk failures into DIR")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-iteration stdout")
    p.add_argument("--checkpoint-points", type=int, default=0,
                   metavar="N",
                   help="also run the checkpoint-transparency oracle at "
                        "N seeded interruption points per program")
    p.set_defaults(func=_cmd_fuzz)

    def _add_workload_args(p) -> None:
        p.add_argument("input", help="sandbox ELF path, or a Table 4 "
                                     "benchmark name with --bench")
        p.add_argument("--bench", action="store_true",
                       help="treat INPUT as a workload name "
                            "(e.g. 505.mcf) and compile it first")
        p.add_argument("--machine", choices=sorted(MACHINE_MODELS),
                       default="apple-m1",
                       help="cycle model to run under (required for "
                            "cycle-based timestamps)")
        p.add_argument("--target", type=int, default=60_000,
                       help="target instruction count for --bench")
        p.add_argument("--unsafe-no-verify", action="store_true")
        p.add_argument("--no-loads", action="store_true")
        p.add_argument("--max-insts", type=int, default=None)

    p = sub.add_parser(
        "trace", parents=[OUT, SEED, OPT, ENGINE],
        help="run a workload with the obs tracer; export a Chrome trace",
    )
    _add_workload_args(p)
    p.add_argument("--sample", type=int, default=0, metavar="N",
                   help="also sample every Nth retired instruction")
    p.add_argument("--validate", action="store_true",
                   help="check the exported JSON against the trace schema")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="also write a metrics snapshot to PATH")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile", parents=[OUT, SEED, OPT, ENGINE],
        help="attribute cycles to app vs guard classes (Table 4 decomposed)",
    )
    _add_workload_args(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "cluster", parents=[OUT, SEED, OPT, ENGINE],
        help="run a synthetic job batch on the sharded cluster runtime",
    )
    p.add_argument("--workers", type=_positive(int), default=2,
                   help="number of OS worker processes")
    p.add_argument("--jobs", type=_positive(int), default=8,
                   help="jobs in the batch")
    p.add_argument("--distinct", type=int, default=4,
                   help="distinct images in the batch (warm-spawn reuse)")
    p.add_argument("--target", type=int, default=20_000,
                   help="target instructions per job")
    p.add_argument("--cold", action="store_true",
                   help="disable warm spawn (cold load+verify per job)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser(
        "checkpoint", parents=[OPT, ENGINE],
        help="pause a sandbox, snapshot it, optionally verify the resume",
    )
    p.add_argument("input", help="sandbox ELF path, or a Table 4 "
                                 "benchmark name with --bench")
    p.add_argument("--bench", action="store_true",
                   help="treat INPUT as a workload name and compile it")
    p.add_argument("--target", type=int, default=60_000,
                   help="target instruction count for --bench")
    p.add_argument("--point", type=int, default=20_000,
                   help="instructions to run before checkpointing")
    p.add_argument("--timeslice", type=int, default=1_000,
                   help="scheduler timeslice (determinism-neutral)")
    p.add_argument("--max-insts", type=int, default=20_000_000,
                   help="budget for full runs (reference and resume)")
    p.add_argument("--save", metavar="PATH",
                   help="write the serialized checkpoint to PATH")
    p.add_argument("--restore", metavar="PATH",
                   help="restore a saved checkpoint and run to completion "
                        "instead of taking one")
    p.add_argument("--verify", action="store_true",
                   help="differentially verify: the split run must be "
                        "byte-identical to the uninterrupted run")
    p.set_defaults(func=_cmd_checkpoint)

    p = sub.add_parser(
        "migrate", parents=[OUT, SEED, OPT, ENGINE],
        help="live-migrate a job mid-batch and verify byte-identity",
    )
    p.add_argument("--workers", type=_positive(int), default=2,
                   help="worker processes in the migrated run")
    p.add_argument("--jobs", type=_positive(int), default=4,
                   help="jobs in the batch")
    p.add_argument("--distinct", type=int, default=2,
                   help="distinct images in the batch")
    p.add_argument("--target", type=int, default=300_000,
                   help="target instructions per job")
    p.add_argument("--interval", type=_positive(int), default=20_000,
                   help="checkpoint interval (instructions)")
    p.set_defaults(func=_cmd_migrate)

    p = sub.add_parser(
        "serve", parents=[OUT, SEED, ENGINE],
        help="serve a seeded open-loop load through the admission gateway",
    )
    p.add_argument("--config", metavar="PATH",
                   help="JSON tenant policy/load config ('-' for stdin; "
                        "default: the built-in 8-tenant demo)")
    p.add_argument("--duration", type=_positive(float), default=None,
                   help="virtual seconds of offered load "
                        "(overrides the config)")
    p.add_argument("--lanes", type=_positive(int), default=None,
                   help="serving lanes (overrides the config)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the validated Prometheus exposition to PATH")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "prove", parents=[OUT, SEED],
        help="exhaustively prove the verifier sound over encoding classes",
    )
    p.add_argument("--class", dest="classes", action="append",
                   metavar="NAME",
                   help="instruction class to prove (repeatable; "
                        "default: every default-tier class)")
    p.add_argument("--all", action="store_true",
                   help="prove the nightly-tier classes too")
    p.add_argument("--list", action="store_true",
                   help="list known classes and exit")
    p.add_argument("--mode", choices=("auto", "shapes", "words"),
                   default="auto",
                   help="enumeration strategy (auto: symbolic shapes for "
                        "large classes)")
    p.add_argument("--policy", choices=("sandbox", "store-only", "both"),
                   default="both",
                   help="verifier policy/policies to prove under")
    p.add_argument("--limit", type=int, default=None,
                   help="truncate each class after N shapes/words "
                        "(report marked TRUNCATED)")
    p.add_argument("--cross-check", type=int, default=0, metavar="N",
                   help="re-analyze N seeded shapes concretely and "
                        "compare against the symbolic verdicts")
    p.add_argument("--probe", type=int, default=0, metavar="N",
                   help="single-step N accepted words on the emulator "
                        "and check the abstract hulls")
    p.add_argument("--save-corpus", default=None, metavar="DIR",
                   help="persist shrunk counterexamples into DIR")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON reports")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("disasm", help="disassemble an ELF text segment")
    p.add_argument("input")
    p.set_defaults(func=_cmd_disasm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and run; tool failures become one-line diagnostics.

    Anything the package itself raises (:class:`ReproError` — malformed
    ELF, verification failure, cluster exhaustion, ...) or the OS raises
    (unreadable input, unwritable ``-o`` target) exits 1 with a single
    ``repro.tools: error:`` line instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"repro.tools: error: {exc}", file=sys.stderr)
        return 1
