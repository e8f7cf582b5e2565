"""``sweep``: the §7.2 headline grid at full scale on a profiled context.

One op is one call of the registered ``headline`` experiment: 16 videos ×
10 traces × BBA/Fugu/SENSEI-Fugu = 480 cells, dispatched through the
context's ``BatchRunner.auto()`` runner and scored by the ground-truth
oracle.  Building the context, profiling its 16 videos and one warm-up
sweep are set-up.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import Measurement, median, recovered
from spans import CURRENT_OP

EXPERIMENT = "headline"
CELLS_PER_OP = 16 * 10 * 3
OP_SPAN = "op.sweep"


def setup(seed: int):
    """Context on the default runner, 16 videos profiled, one warm sweep."""
    from repro.experiments.registry import context_for, get_experiment
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec(
        experiment=EXPERIMENT, scale="full", seed=seed, backend="auto"
    )
    context = context_for(spec)
    context.weights_by_video()
    get_experiment(EXPERIMENT).fn(context)
    return context


def backend(context) -> str:
    return context.runner.backend


def measure(context, seconds: float, tracer=None) -> Measurement:
    """Sweep until ``seconds`` have passed (at least three ops)."""
    from repro.experiments.registry import get_experiment

    fn = get_experiment(EXPERIMENT).fn
    durations: List[float] = []
    outputs: List[object] = []
    failed = 0
    phase_faults = context.runner.fault_log.snapshot()
    deadline = time.perf_counter() + seconds
    while len(durations) < 3 or time.perf_counter() < deadline:
        token = CURRENT_OP.set(f"sweep-{len(durations)}")
        faults_before = context.runner.fault_log.snapshot()
        handle = tracer.open() if tracer is not None else None
        started = time.perf_counter()
        try:
            outputs.append(fn(context))
        except Exception as error:  # a failed op fails all its cells
            outputs.append(repr(error))
            failed += CELLS_PER_OP
        else:
            if recovered(context.runner.fault_log.since(faults_before)):
                failed += CELLS_PER_OP
        finally:
            durations.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.close(handle, OP_SPAN)
            CURRENT_OP.reset(token)
    cells_per_s = median([CELLS_PER_OP / d for d in durations])
    p50_ms = 1e3 * median(durations)
    max_ms = 1e3 * max(durations)
    return Measurement(
        attempted=CELLS_PER_OP * len(durations),
        failed=failed,
        outputs=outputs,
        primary=cells_per_s,
        end_to_end={
            "throughput_per_s": cells_per_s,
            "latency_p50_ms": p50_ms,
        },
        named={
            "cells_per_s": (cells_per_s, "cells/s"),
            "sweep_p50_ms": (p50_ms, "ms"),
            "sweep_max_ms": (max_ms, "ms"),
            "sweeps": (len(durations), "count"),
        },
        ops=len(durations),
        detail={"op_durations_s": durations,
                "faults": context.runner.fault_log.since(phase_faults)},
    )


def check(context, measurements: List[Measurement]) -> Dict[str, object]:
    """Every op's result must equal a serial-backend sweep of the same
    profiled context, float for float.  The headline numbers aggregate all
    480 cells, so any differing cell changes them."""
    from repro.engine.runner import BatchRunner
    from repro.experiments.registry import get_experiment

    auto_runner = context.runner
    context.runner = BatchRunner(backend="serial")
    try:
        reference = get_experiment(EXPERIMENT).fn(context)
    finally:
        context.runner = auto_runner
    outputs = [out for m in measurements for out in m.outputs]
    mismatched = [i for i, out in enumerate(outputs) if out != reference]
    return {
        "ok": not mismatched,
        "serial_reference": reference,
        "ops_checked": len(outputs),
        "mismatched_ops": mismatched,
    }
