"""The layers the traced run measures, what each should move, and the
traced-phase bookkeeping.

:data:`PER_LAYER` is the single list of per-layer metrics: name, unit,
which direction is better, and the end-to-end metric (with workload)
that the layer metric should move.  ``BENCHMARK.json`` lists the same
names; ``run.py`` refuses to start when the two disagree.  Every traced
run reports every metric; a layer a workload never calls reads 0, which
is itself a prediction (for example ``abr.kernel_calls`` on ``train``).

"Per op" means per unit of the workload's end-to-end throughput: one
480-cell grid (``sweep``), one decision (``serve``), one ``train()`` call
(``train``).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence, Tuple

from common import ROOT, median
from spans import Tracer, pickled_bytes

#: (name, unit, better, moves) — ``moves`` names the end-to-end metric and
#: workload the layer metric should move.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine.dispatch_s", "s/op", "lower",
     "cells_per_s on sweep; episodes_per_s on train"),
    ("engine.other_s", "s/op", "lower", "cells_per_s on sweep"),
    ("engine.result_bytes", "bytes/order", "lower",
     "cells_per_s on sweep (process backend)"),
    ("engine.retries", "count", "lower", "failed share on every workload"),
    ("engine.serial_fallbacks", "count", "lower",
     "failed share on every workload"),
    ("abr.kernel_s", "s/op", "lower",
     "cells_per_s on sweep; decide_p50_ms_r2000 and max_rate_at_slo on serve"),
    ("abr.kernel_calls", "count/op", "lower",
     "cells_per_s on sweep; decide_p50_ms_r2000 on serve"),
    ("abr.candidates_scored", "count/op", "lower",
     "cells_per_s on sweep; decide_p50_ms_r2000 on serve"),
    ("abr.candidates_per_s", "1/s", "higher",
     "cells_per_s on sweep; max_rate_at_slo on serve"),
    ("abr.plan_cache_hit_ratio", "ratio", "higher", "cells_per_s on sweep"),
    ("player.step_s", "s/op", "lower",
     "cells_per_s on sweep; episodes_per_s on train"),
    ("player.steps", "count/op", "lower",
     "cells_per_s on sweep; episodes_per_s on train"),
    ("qoe.score_s", "s/op", "lower",
     "cells_per_s on sweep; episodes_per_s on train"),
    ("qoe.scores", "count/op", "lower",
     "cells_per_s on sweep; episodes_per_s on train"),
    ("core.profile_s", "s", "lower", "setup_s on sweep and train"),
    ("crowd.campaign_s", "s", "lower", "setup_s on sweep and train"),
    ("crowd.ratings", "count", "lower", "setup_s on sweep and train"),
    ("core.infer_weights_s", "s", "lower", "setup_s on sweep and train"),
    ("video.encode_s", "s", "lower", "setup_s on every workload"),
    ("network.trace_bank_s", "s", "lower", "setup_s on every workload"),
    ("service.admission_wait_ms.p50_r1000", "ms", "lower",
     "decide_p50_ms_r1000 on serve"),
    ("service.admission_wait_ms.p99_r1000", "ms", "lower",
     "decide_p99_ms_r1000 on serve"),
    ("service.admission_wait_ms.p50_r2000", "ms", "lower",
     "decide_p99_ms_r2000 and max_rate_at_slo on serve"),
    ("service.admission_wait_ms.p99_r2000", "ms", "lower",
     "decide_p99_ms_r2000 and max_rate_at_slo on serve"),
    ("service.window_wait_ms.p50_r1000", "ms", "lower",
     "decide_p50_ms_r1000 on serve"),
    ("service.window_wait_ms.p99_r1000", "ms", "lower",
     "decide_p99_ms_r1000 on serve"),
    ("service.window_wait_ms.p50_r2000", "ms", "lower",
     "decide_p50_ms_r2000 on serve"),
    ("service.window_wait_ms.p99_r2000", "ms", "lower",
     "decide_p99_ms_r2000 on serve"),
    ("service.decide_batch_ms.p50_r1000", "ms", "lower",
     "decide_p50_ms_r1000 on serve"),
    ("service.decide_batch_ms.p99_r1000", "ms", "lower",
     "decide_p99_ms_r1000 on serve"),
    ("service.decide_batch_ms.p50_r2000", "ms", "lower",
     "decide_p50_ms_r2000 and max_rate_at_slo on serve"),
    ("service.decide_batch_ms.p99_r2000", "ms", "lower",
     "decide_p99_ms_r2000 and max_rate_at_slo on serve"),
    ("service.batch_size_r1000", "count", "higher",
     "decide_p50_ms_r1000 on serve"),
    ("service.batch_size_r2000", "count", "higher",
     "decide_p50_ms_r2000 on serve"),
    ("service.size_flush_share_r1000", "ratio", "higher",
     "decide_p50_ms_r1000 on serve"),
    ("service.size_flush_share_r2000", "ratio", "higher",
     "decide_p50_ms_r2000 on serve"),
    ("service.register_ms", "ms", "lower", "max_rate_at_slo on serve"),
    ("service.degraded", "count", "lower", "failed share on serve"),
    ("service.errors", "count", "lower", "failed share on serve"),
    ("training.collect_s", "s/op", "lower", "episodes_per_s on train"),
    ("training.episodes", "count/op", "higher", "episodes_per_s on train"),
    ("ml.update_s", "s/op", "lower", "episodes_per_s on train"),
    ("ml.updates", "count/op", "higher", "episodes_per_s on train"),
    ("ml.forward_calls", "count/op", "lower", "episodes_per_s on train"),
    ("ml.forward_rows", "count/op", "lower", "episodes_per_s on train"),
    ("training.eval_s", "s/op", "lower", "episodes_per_s on train"),
    ("loadgen.late_ms_max", "ms", "lower",
     "validity of the serve run (no program layer)"),
    ("trace.unattributed_ms", "ms/op", "lower",
     "the op's time no wrapped layer accounts for (median over ops)"),
    ("trace.overhead_pct", "%", "lower",
     "traced against untraced end-to-end result of the same run"),
)

PER_LAYER_NAMES = tuple(name for name, _, _, _ in PER_LAYER)

#: What the layer figures predict about the end-to-end ones; every traced
#: run record carries these next to the figures that test them.
PREDICTIONS = (
    "A planner-kernel speed-up saves at most abr.kernel_s / "
    "engine.dispatch_s of a sweep's dispatch; it leaves episodes_per_s "
    "(train: abr.kernel_calls is 0) and decide_p50_ms_r1000 (serve: "
    "mostly service.window_wait_ms) unchanged.",
    "As serve load rises, service.admission_wait_ms grows before "
    "throughput tops out, so decide_p99_ms_r2000 moves before "
    "max_rate_at_slo.",
)


def _kernel_counts(args, kwargs, result) -> Dict[str, float]:
    return {"abr.candidates_scored":
            len(result.best_level) * result.num_candidates}


def _rows_counts(args, kwargs, result) -> Dict[str, float]:
    rows = getattr(result, "shape", (1,))
    return {"ml.forward_rows": rows[0] if len(rows) > 1 else 1}


def _step_counts(args, kwargs, result) -> Dict[str, float]:
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"player.steps": len(rows)}


def _ratings_counts(args, kwargs, result) -> Dict[str, float]:
    return {"crowd.ratings": len(result.records)}


def _episodes_counts(args, kwargs, result) -> Dict[str, float]:
    return {"training.episodes": len(result)}


#: (module, attribute, layer, counter hook) for every wrapped public call.
#: A function imported by name elsewhere is wrapped at each binding the
#: workloads reach.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.engine.runner", "BatchRunner.run_orders", "engine.dispatch", None),
    ("repro.engine.runner", "BatchRunner.map_ordered", "engine.dispatch", None),
    ("repro.abr.planner", "evaluate_candidates_batch", "abr.kernel",
     _kernel_counts),
    ("repro.engine.lockstep", "evaluate_candidates_batch", "abr.kernel",
     _kernel_counts),
    ("repro.player.shard", "ShardState.step", "player.step", _step_counts),
    ("repro.qoe.ground_truth", "GroundTruthOracle.true_qoe", "qoe.score",
     None),
    ("repro.core.profiler", "SenseiProfiler.profile_video", "core.profile",
     None),
    ("repro.crowd.campaign", "MTurkCampaign.run", "crowd.campaign",
     _ratings_counts),
    ("repro.core.profiler", "infer_weights", "core.infer_weights", None),
    ("repro.video.encoder", "SyntheticEncoder.encode", "video.encode", None),
    ("repro.network.bank", "TraceBank.traces", "network.trace_bank", None),
    ("repro.training.collector", "RolloutCollector.collect",
     "training.collect", _episodes_counts),
    ("repro.ml.rl", "ActorCriticAgent.train_on_episode", "ml.update", None),
    ("repro.ml.rl", "ActorCriticAgent.action_probabilities", "ml.forward",
     _rows_counts),
    ("repro.ml.rl", "ActorCriticAgent.action_probabilities_batch",
     "ml.forward", _rows_counts),
    ("repro.training.trainer", "evaluate_policy", "training.eval", None),
    ("repro.service.service", "DecisionService.register", "service.register",
     None),
)


def _counting_plan_cache(fn: Callable) -> Callable:
    """Wrap a lockstep shard run so the plan-cache hits and misses it
    causes land in the active obs registry (worker registries travel back
    to the parent with the shard results)."""
    from repro.abr.planner import plan_cache_info
    from repro.obs.metrics import get_registry

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        before = plan_cache_info()
        result = fn(*args, **kwargs)
        after = plan_cache_info()
        registry = get_registry()
        registry.counter("bench.abr.plan_cache_hits").inc(
            after.hits - before.hits)
        registry.counter("bench.abr.plan_cache_misses").inc(
            after.misses - before.misses)
        return result

    return counted


class TracedSession:
    """The traced half of a ``--trace 1`` run.

    :meth:`active` installs the wrappers, turns on the program's own
    ``repro.obs`` spans (so pool workers ship their registries back) and
    scopes a fresh registry; leaving it restores everything, so the
    untraced half of the same run measures the unmodified program.
    """

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.tracer = Tracer()
        self.setup_registry = MetricsRegistry()
        self.ops_registry = MetricsRegistry()
        #: Pickled size of one dispatch's results, per order (0 until a
        #: traced phase dispatches).
        self.bytes_per_order = 0.0

    @contextmanager
    def active(self, registry, extra_targets: Sequence = ()):
        from repro.obs.metrics import use_registry
        from repro.obs.trace import set_enabled

        tracer = self.tracer
        session = self

        def sized(run_orders):
            @functools.wraps(run_orders)
            def wrapper(runner, orders):
                results = run_orders(runner, orders)
                if not session.bytes_per_order and results:
                    # The pickled size is a function of the results alone,
                    # so one dispatch's worth is measured (under its own
                    # span, so the cost is not taken for unattributed time).
                    handle = tracer.open()
                    session.bytes_per_order = (
                        pickled_bytes(results) / len(results)
                    )
                    tracer.close(handle, "shim.result_bytes")
                return results
            return wrapper

        previous = set_enabled(True)
        try:
            tracer.install(TARGETS)
            for module, attr, wrap in (
                ("repro.engine.lockstep", "run_orders_lockstep",
                 _counting_plan_cache),
                ("repro.engine.runner", "BatchRunner.run_orders", sized),
            ):
                tracer.patch(module, attr, wrap(tracer.original(module, attr)))
            for module, attr, replacement in extra_targets:
                tracer.patch(module, attr, replacement)
            with use_registry(registry):
                yield
        finally:
            set_enabled(previous)
            tracer.uninstall()

    def run_setup(self, build: Callable[[], object]):
        with self.active(self.setup_registry):
            started = perf_counter()
            state = build()
            return state, perf_counter() - started

    def run_ops(self, measure: Callable[[], object], extra_targets=()):
        with self.active(self.ops_registry, extra_targets):
            return measure()

    # ------------------------------------------------------------ metrics

    def per_layer(self, ops: int, op_span: str, runner_faults: Dict,
                  overhead_pct: float,
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Every :data:`PER_LAYER` metric from the traced phases."""
        ops = max(ops, 1)
        setup = self.setup_registry.snapshot()
        snap = self.ops_registry.snapshot()

        def span_s(snapshot, layer: str) -> float:
            return float(snapshot["spans"].get(f"bench.{layer}", {})
                         .get("total_s", 0.0))

        def span_n(snapshot, layer: str) -> float:
            return float(snapshot["spans"].get(f"bench.{layer}", {})
                         .get("count", 0))

        def counter(snapshot, name: str) -> float:
            return float(snapshot["counters"].get(f"bench.{name}", 0.0))

        dispatch = sum(
            s.end - s.start for s in self._top_level("engine.dispatch")
        )
        kernel_s = span_s(snap, "abr.kernel")
        step_s = span_s(snap, "player.step")
        scored = counter(snap, "abr.candidates_scored")
        hits = counter(snap, "abr.plan_cache_hits")
        misses = counter(snap, "abr.plan_cache_misses")
        unattributed = self.tracer.unattributed_per_op(op_span)
        registers = [s.end - s.start for s in self.tracer.spans
                     if s.name == "service.register" and s.op is not None]
        metrics = {name: 0.0 for name in PER_LAYER_NAMES}
        metrics.update({
            "engine.dispatch_s": dispatch / ops,
            "engine.other_s": max(dispatch - kernel_s - step_s, 0.0) / ops,
            "engine.result_bytes": self.bytes_per_order,
            "engine.retries": float(runner_faults.get("retries", 0)),
            "engine.serial_fallbacks": float(
                runner_faults.get("serial_fallbacks", 0)),
            "abr.kernel_s": kernel_s / ops,
            "abr.kernel_calls": span_n(snap, "abr.kernel") / ops,
            "abr.candidates_scored": scored / ops,
            "abr.candidates_per_s": scored / kernel_s if kernel_s else 0.0,
            "abr.plan_cache_hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "player.step_s": step_s / ops,
            "player.steps": counter(snap, "player.steps") / ops,
            "qoe.score_s": span_s(snap, "qoe.score") / ops,
            "qoe.scores": span_n(snap, "qoe.score") / ops,
            "core.profile_s": span_s(setup, "core.profile"),
            "crowd.campaign_s": span_s(setup, "crowd.campaign"),
            "crowd.ratings": counter(setup, "crowd.ratings"),
            "core.infer_weights_s": span_s(setup, "core.infer_weights"),
            "video.encode_s": span_s(setup, "video.encode"),
            "network.trace_bank_s": span_s(setup, "network.trace_bank"),
            "training.collect_s": span_s(snap, "training.collect") / ops,
            "training.episodes": counter(snap, "training.episodes") / ops,
            "ml.update_s": span_s(snap, "ml.update") / ops,
            "ml.updates": span_n(snap, "ml.update") / ops,
            "ml.forward_calls": span_n(snap, "ml.forward") / ops,
            "ml.forward_rows": counter(snap, "ml.forward_rows") / ops,
            "training.eval_s": span_s(snap, "training.eval") / ops,
            "service.register_ms": (
                1e3 * median(registers) if registers else 0.0
            ),
            "trace.unattributed_ms": (
                1e3 * median(unattributed) if unattributed else 0.0
            ),
            "trace.overhead_pct": overhead_pct,
        })
        if extra:
            metrics.update(extra)
        return metrics

    def _top_level(self, name: str):
        """Spans named ``name`` whose parent is not also ``name`` (the
        serial backend's ``run_orders`` calls ``map_ordered``)."""
        by_id = {span.id: span for span in self.tracer.spans}
        return [
            span for span in self.tracer.spans
            if span.name == name and span.op is not None
            and not (span.parent in by_id and by_id[span.parent].name == name)
        ]

    def dump(self, workload: str, seed: int,
             extra: Dict[str, object]) -> Path:
        """Write the span list and both registry snapshots."""
        path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
        self.tracer.dump(path, {
            "workload": workload,
            "seed": seed,
            "setup_registry": self.setup_registry.snapshot(),
            "ops_registry": self.ops_registry.snapshot(),
            **extra,
        })
        return path
