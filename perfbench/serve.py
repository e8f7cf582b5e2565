"""``serve``: open-loop load against an in-process ``DecisionService``.

The service runs with its default batching (max batch 16, 2 ms window)
on one asyncio loop, with shedding off: no shed timeout, and a backlog
bound no tenant can reach.  On a shared host a slow stretch of the
machine would otherwise shed decisions at any offered rate; with
shedding off it shows as latency instead, and every decision is
answered.

A run offers two fixed rates, 1000/s and 2000/s, well below the
service's capacity; there a decision that is shed, raises or finds no
idle session counts as failed.  Then a capacity search climbs a ×1.1
geometric ladder of rates from 3138/s (rung 12) until a rung misses the
limit (or walks down until one meets it), and halves the last gap
twice.  The limit: p99 within 50 ms with every failed decision counted
as over it, and no growing generator lag.  ``max_rate_at_slo`` is the
rate achieved on the highest step that met it.  The search offers load
past saturation on purpose, where a request may find every session
busy, so there only a decision that is shed or raises counts as failed;
the run record keeps every ladder step with its failure counts.  Every
step runs as several parts and reports medians over them
(``openloop.Step``).

Building the full-scale inventory (16 encoded videos, 10 traces),
registering the session pool and a short warm-up are set-up.  No
profiling, RL or batch runner is involved.
"""

from __future__ import annotations

import asyncio
import functools
import math
from time import perf_counter
from typing import Dict, List

from common import Measurement, percentile
from openloop import (POOL_SIZE, SessionPool, ladder_rung, run_phase,
                      run_step)
from spans import CURRENT_OP

OP_SPAN = "op.decision"
#: The two fixed offered rates (decisions/s): about a quarter and a half
#: of the service's capacity (3.3k–4.2k/s on a 2-core x86-64 host), so a
#: slower stretch of a shared host still leaves them below capacity.
RATES = (1000.0, 2000.0)
#: Every offered rate runs as :data:`PARTS` equal parts (figures are
#: medians over parts, see ``openloop.Step``).  Each part of a fixed rate
#: takes :data:`FIXED_PART_SHARE` of the run; each part of a ladder rung
#: :data:`RUNG_PART_SHARE`.
PARTS = 5
FIXED_PART_SHARE = 0.03
RUNG_PART_SHARE = 0.02
#: The ladder starts at rung :data:`FIRST_RUNG` (3138/s) and walks ×1.1
#: per rung until it brackets the limit (at most :data:`MAX_RUNGS`
#: rungs), then halves the bracket (geometrically) :data:`BISECTIONS`
#: times, so the reported rate resolves to ~2.4% instead of the ladder's
#: 10%.
FIRST_RUNG = 12
MAX_RUNGS = 12
BISECTIONS = 2


class State:
    """The service, its session pool and the load generator's RNG."""

    def __init__(self, seed: int) -> None:
        from repro.experiments.common import ExperimentContext, ExperimentScale
        from repro.service import DecisionService

        context = ExperimentContext(scale=ExperimentScale.full(), seed=seed)
        self.service = DecisionService(
            shed_timeout_s=None, max_backlog_per_tenant=POOL_SIZE
        )
        self.pool = SessionPool(
            self.service, context.videos(), context.traces(), seed
        )
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(run_phase(
            self.service, self.pool, RATES[0], 0.3, "warmup"
        ))

    def close(self) -> None:
        self.loop.run_until_complete(self.service.close())
        self.loop.close()


def setup(seed: int) -> State:
    return State(seed)


def close(state: State) -> None:
    state.close()


def backend(state: State) -> str:
    # The service plans in-process on its own; report that rather than
    # what ``BatchRunner.auto()`` would pick.
    return "in-process (DecisionService)"


async def _measure(state: State, seconds: float, tracer) -> Dict[str, object]:
    def step(rate: float, share: float, label: str):
        return run_step(state.service, state.pool, rate, share * seconds,
                        PARTS, label, tracer)

    fixed = {}
    for rate in RATES:
        fixed[rate] = await step(rate, FIXED_PART_SHARE, f"r{int(rate)}")
    # Walk the ladder up from the first rung while rungs meet the limit,
    # or down until one does; then bisect the bracket that leaves between
    # the highest rate that met it and the lowest above that did not.
    first = await step(ladder_rung(FIRST_RUNG), RUNG_PART_SHARE, "ladder0")
    ladder = [first]
    up = first.meets_slo
    k = FIRST_RUNG + (1 if up else -1)
    for rung in range(1, MAX_RUNGS):
        attempt = await step(ladder_rung(k), RUNG_PART_SHARE, f"ladder{rung}")
        ladder.append(attempt)
        if attempt.meets_slo != up:
            break
        k += 1 if up else -1
    for index in range(BISECTIONS):
        met = [s.rate for s in ladder if s.meets_slo]
        above = [s.rate for s in ladder
                 if not s.meets_slo and s.rate > max(met, default=0.0)]
        if not met or not above:
            break
        rate = math.sqrt(max(met) * min(above))
        ladder.append(await step(rate, RUNG_PART_SHARE, f"bisect{index}"))
    return {"fixed": fixed, "ladder": ladder}


def measure(state: State, seconds: float, tracer=None) -> Measurement:
    phases = state.loop.run_until_complete(_measure(state, seconds, tracer))
    low, high = phases["fixed"][RATES[0]], phases["fixed"][RATES[1]]
    fixed_steps = [low, high]
    ladder = phases["ladder"]
    passed = [s for s in ladder if s.meets_slo]
    best = max(passed, key=lambda step: step.rate) if passed else None
    max_rate = best.achieved_per_s if best is not None else 0.0
    ladder_failed = sum(part.errors + part.degraded
                        for s in ladder for part in s.parts)
    named = {
        "decide_p50_ms_r1000": (low.p(50.0), "ms"),
        "decide_p99_ms_r1000": (low.p(99.0), "ms"),
        "decide_p50_ms_r2000": (high.p(50.0), "ms"),
        "decide_p99_ms_r2000": (high.p(99.0), "ms"),
        "max_rate_at_slo": (max_rate, "decisions/s"),
        "max_rate_offered": (best.rate if best else 0.0, "decisions/s"),
        "late_ms_max": (max(s.summary()["late_ms_max"] for s in fixed_steps),
                        "ms"),
        "ladder_no_idle": (sum(s.failed for s in ladder) - ladder_failed,
                           "count"),
    }
    return Measurement(
        attempted=sum(s.attempted for s in fixed_steps + ladder),
        failed=sum(s.failed for s in fixed_steps) + ladder_failed,
        outputs=[],
        primary=1.0 / low.p(50.0),
        # The end-to-end latency is the one at 1000/s: at 2000/s the
        # adaptive window lengthens as batches fill, which doubles the
        # run-to-run spread of the p50 as the host's speed drifts.
        end_to_end={
            "throughput_per_s": max_rate,
            "latency_p50_ms": low.p(50.0),
        },
        named=named,
        ops=sum(len(part.latencies_s)
                for s in fixed_steps for part in s.parts),
        detail={
            "steps": [s.summary() for s in fixed_steps],
            "ladder": [s.summary() for s in ladder],
            "fixed": {rate: phases["fixed"][rate].summary() for rate in RATES},
        },
    )


def check(state: State, measurements: List[Measurement]) -> Dict[str, object]:
    """``verify_online_offline`` on the pool's seeded sample of finished,
    never-degraded sessions: online decisions must equal the offline
    replay level for level and stall for stall."""
    from repro.service import verify_online_offline

    report = verify_online_offline(state.service, state.pool.finished)
    return {
        "ok": report["checked"] > 0 and not report["mismatches"],
        "checked": report["checked"],
        "mismatches": report["mismatches"],
        "finished_sessions": state.pool.finished_count,
        "registrations": state.pool.registrations,
    }


# ------------------------------------------------------------------ tracing

def trace_targets(session, state: State):
    """Service-side wrappers: admission (``acquire``), the batching window
    (submit to flush) and the flush's ``decide_batch``."""
    tracer = session.tracer
    submitted: Dict[str, float] = {}
    op_of_clone: Dict[int, str] = {}
    acquire = tracer.original("repro.service.fairsched",
                              "WeightedFairScheduler.acquire")
    submit = tracer.original("repro.service.batcher", "AdaptiveBatcher.submit")
    decide_batch = tracer.original("repro.service.service", "decide_batch")
    decide = tracer.original("repro.service.service", "DecisionService.decide")

    @functools.wraps(decide)
    async def tagged_decide(service, tenant, session_id):
        entry = service.table.get(tenant, session_id)
        op_of_clone[id(entry.clone)] = CURRENT_OP.get()
        return await decide(service, tenant, session_id)

    @functools.wraps(submit)
    async def timed_submit(batcher, item):
        submitted[CURRENT_OP.get()] = perf_counter()
        return await submit(batcher, item)

    @functools.wraps(decide_batch)
    def flush(requests):
        flush_start = perf_counter()
        for clone, _, _ in requests:
            op = op_of_clone.get(id(clone))
            if op in submitted:
                tracer.add("service.window_wait", submitted.pop(op),
                           flush_start, op=op)
        return traced_batch(requests)

    traced_batch = tracer.wrap("service.decide_batch", decide_batch)
    return [
        ("repro.service.service", "DecisionService.decide", tagged_decide),
        ("repro.service.fairsched", "WeightedFairScheduler.acquire",
         tracer.wrap_async("service.admission", acquire)),
        ("repro.service.batcher", "AdaptiveBatcher.submit",
         tracer.wrap_async("service.window", timed_submit)),
        ("repro.service.service", "decide_batch", flush),
    ]


def layer_metrics(session, state: State,
                  measured: Measurement) -> Dict[str, float]:
    """The service's per-layer figures at each fixed rate."""
    metrics: Dict[str, float] = {}
    spans = session.tracer.spans
    for rate in RATES:
        label = f"r{int(rate)}."
        for layer, name in (("service.admission", "admission_wait_ms"),
                            ("service.window_wait", "window_wait_ms"),
                            ("service.decide_batch", "decide_batch_ms")):
            samples = [s.end - s.start for s in spans
                       if s.name == layer and str(s.op).startswith(label)]
            for q in (50, 99):
                metrics[f"service.{name}.p{q}_r{int(rate)}"] = (
                    1e3 * percentile(samples, q)
                )
        summary = measured.detail["fixed"][rate]
        metrics[f"service.batch_size_r{int(rate)}"] = summary["mean_batch"]
        metrics[f"service.size_flush_share_r{int(rate)}"] = (
            summary["size_flush_share"]
        )
    steps = measured.detail["steps"]
    metrics["service.degraded"] = float(sum(s["degraded"] for s in steps))
    metrics["service.errors"] = float(sum(s["errors"] for s in steps))
    metrics["loadgen.late_ms_max"] = max(s["late_ms_max"] for s in steps)
    return metrics
