"""The repository's benchmark: one command, three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,serve,train} --seed N \\
        --seconds S --trace {0,1}

* ``sweep`` — the §7.2 headline grid (480 cells) at full scale on a
  profiled context (``sweep.py``);
* ``serve`` — open-loop Poisson load on an in-process ``DecisionService``
  (``serve.py``, ``openloop.py``);
* ``train`` — ``Trainer.train()`` of a SENSEI-Pensieve policy on a quick
  context's curriculum (``train.py``).

Each workload builds its inputs from ``--seed``, runs the program through
its public entry points on the default backend (``BatchRunner.auto()``),
measures for ``--seconds`` and then checks the outputs outside every
timed region.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` the run is split into
an untraced and a traced half and the per-layer metrics are reported
(``layers.py``), including the tracing overhead between the halves.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (what it ran under, every figure by its
per-workload name, the checks) is written to
``.perfbench/run-<workload>-seed<N>-trace<T>.json``; a traced run also
writes its spans to ``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep", "serve", "train")
#: The generated inputs take seeds below this (seed offsets stay in range
#: for every RNG the program uses).
SEED_SPACE = 2 ** 31 - 1024


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _untraced(module, seed: int, seconds: float):
    from common import peak_rss_mb, timed_setups

    close = getattr(module, "close", None)
    state, setup_s, setups = timed_setups(lambda: module.setup(seed), close)
    try:
        measured = module.measure(state, seconds)
        rss = peak_rss_mb()
        checks = module.check(state, [measured])
        backend = module.backend(state)
    finally:
        if close is not None:
            close(state)
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss,
               **measured.end_to_end}
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
             **measured.named}
    extra = {"setup_runs_s": setups, "detail": measured.detail}
    return measured.attempted, measured.failed, checks, metrics, named, \
        backend, extra


def _traced(module, seed: int, seconds: float, workload: str):
    from layers import PER_LAYER, PREDICTIONS, TracedSession

    session = TracedSession()
    close = getattr(module, "close", None)
    state, setup_s = session.run_setup(lambda: module.setup(seed))
    try:
        plain = module.measure(state, seconds / 2)
        extra_targets = (
            module.trace_targets(session, state)
            if hasattr(module, "trace_targets") else ()
        )
        traced = session.run_ops(
            lambda: module.measure(state, seconds / 2, tracer=session.tracer),
            extra_targets,
        )
        checks = module.check(state, [plain, traced])
        backend = module.backend(state)
    finally:
        if close is not None:
            close(state)
    overhead_pct = 100.0 * (plain.primary / traced.primary - 1.0)
    metrics = session.per_layer(
        ops=traced.ops, op_span=module.OP_SPAN,
        runner_faults=traced.detail.get("faults", {}),
        overhead_pct=overhead_pct,
        extra=(module.layer_metrics(session, state, traced)
               if hasattr(module, "layer_metrics") else None),
    )
    tracer = session.tracer
    self_times = {
        "setup": tracer.self_times(lambda span: span.op is None),
        "ops": tracer.self_times(lambda span: span.op is not None),
    }
    named = {f"untraced.{k}": v for k, v in plain.named.items()}
    named.update({f"traced.{k}": v for k, v in traced.named.items()})
    extra = {
        "predictions": PREDICTIONS,
        "layer_moves": {name: moves for name, _, _, moves in PER_LAYER},
        "traced_setup_s": setup_s,
        "self_time_s": self_times,
        "detail": {"untraced": plain.detail, "traced": traced.detail},
        "trace_file": str(session.dump(workload, seed, {
            "self_time_s": self_times,
        }).relative_to(ROOT)),
    }
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            checks, metrics, named, backend, extra)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        return _fail(f"cannot read BENCHMARK.json: {error}")
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from common import run_record

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    if [m["name"] for m in spec["per_layer"]] != list(layers.PER_LAYER_NAMES):
        return _fail("BENCHMARK.json per_layer disagrees with layers.py")

    module = __import__(args.workload)
    seed = args.seed % SEED_SPACE
    if args.trace:
        result = _traced(module, seed, args.seconds, args.workload)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        result = _untraced(module, seed, args.seconds)
        wanted = [m["name"] for m in spec["end_to_end"]]
    attempted, failed, checks, metrics, named, backend, extra = result
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        return _fail(f"workload did not measure {missing}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "run": run_record(seed, backend),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: metrics[k] for k in wanted},
        **extra,
    }
    out = ROOT / ".perfbench" / (
        f"run-{args.workload}-seed{seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    run = record["run"]
    print(f"{args.workload}: seed {seed}, backend {backend}, "
          f"{run['cpu_count']} cores, kernel {run['kernel_config']}, "
          f"revision {run['git_revision'] or run['source_sha256']}")
    for name, (value, unit) in named.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if args.trace:
        for phase, times in extra["self_time_s"].items():
            print(f"  self time per layer, {phase} (s):")
            for name, seconds in sorted(times.items()):
                print(f"    {name:34s} {seconds:14.6g}")
        print("  per-layer metrics (and the end-to-end figure each should "
              "move):")
        for name in wanted:
            print(f"    {name:34s} {metrics[name]:14.6g} {units[name]:11s} "
                  f"-> {extra['layer_moves'][name]}")
        for prediction in extra["predictions"]:
            print(f"  prediction: {prediction}")
    print(f"  checks: {'pass' if checks['ok'] else 'FAIL'}; "
          f"attempted {attempted}, failed {failed}; record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(checks["ok"]),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
