"""``train``: ``Trainer.train()`` of a SENSEI-Pensieve policy.

One op is one ``train()`` call with ``DEFAULT_TRAINING`` (12 rounds × 8
episodes, greedy held-out evaluation every round) on a ``quick``
context's curriculum.  The context is the default one (seed
:data:`CONTEXT_SEED`); the run's seed is the curriculum seed, which picks
every episode and generates the stress-regime traces, and seeds the
initial policy.  Each op runs on a fresh
``BatchRunner.auto(persistent=True)`` runner (the runner ``repro train``
uses), closed after the call, and starts from the same freshly built
policy, so every op trains the same checkpoint.  Building the context, profiling its 4 videos and
generating the curriculum's trace pools are set-up.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import Measurement, median, recovered
from spans import CURRENT_OP

OP_SPAN = "op.train"
#: Seed of the quick context (videos, bank traces, profiles): the
#: default ``ExperimentSpec`` seed.
CONTEXT_SEED = 7


class State:
    def __init__(self, seed: int) -> None:
        from repro.experiments.common import ExperimentContext, ExperimentScale
        from repro.training import CurriculumConfig, DEFAULT_TRAINING

        scale = ExperimentScale.quick()
        self.seed = seed
        self.context = ExperimentContext(scale=scale, seed=CONTEXT_SEED)
        self.curriculum = self.context.training_curriculum(
            config=CurriculumConfig(
                trace_duration_s=scale.trace_duration_s, seed=seed,
            )
        )
        # Fill the curriculum's per-regime trace pools and the held-out
        # specs (both cached), so no op pays for them.
        for round_index in range(DEFAULT_TRAINING.rounds):
            self.curriculum.training_specs(
                DEFAULT_TRAINING.episodes_per_round, round_index=round_index
            )
        self.curriculum.holdout_specs(DEFAULT_TRAINING.eval_episodes)

    def train(self, runner):
        """One ``train()`` from the seeded initial policy."""
        from repro.core.sensei_abr import make_sensei_pensieve
        from repro.training import DEFAULT_TRAINING, Trainer

        abr = make_sensei_pensieve(seed=self.seed + 117)
        trainer = Trainer(
            abr, self.curriculum, runner=runner, oracle=self.context.oracle,
            config=DEFAULT_TRAINING,
        )
        return abr, trainer.train()


def setup(seed: int) -> State:
    return State(seed)


def backend(state: State) -> str:
    from repro.engine.runner import BatchRunner

    return BatchRunner.auto().backend


def _fingerprint(abr, result) -> Dict[str, object]:
    """What two runs must agree on: every actor/critic parameter (as raw
    bytes) and the held-out QoE figures."""
    params = {
        f"{net}.{key}": np.asarray(value).tobytes().hex()
        for net, state in (("actor", abr.agent.actor.state_dict()),
                           ("critic", abr.agent.critic.state_dict()))
        for key, value in sorted(state.items())
    }
    return {
        "final_eval_qoe": result.final_eval_qoe,
        "best_eval_qoe": result.best_eval_qoe,
        "episodes_trained": result.episodes_trained,
        "params": params,
    }


def measure(state: State, seconds: float, tracer=None) -> Measurement:
    """Train until ``seconds`` have passed (at least three ops)."""
    from repro.engine.runner import BatchRunner
    from repro.training import DEFAULT_TRAINING

    durations: List[float] = []
    outputs: List[object] = []
    episodes: List[int] = []
    failed = 0
    faults: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while len(durations) < 3 or time.perf_counter() < deadline:
        token = CURRENT_OP.set(f"train-{len(durations)}")
        handle = tracer.open() if tracer is not None else None
        started = time.perf_counter()
        runner = BatchRunner.auto(persistent=True)
        try:
            abr, result = state.train(runner)
        except Exception as error:  # a failed op fails all its episodes
            outputs.append(repr(error))
            episodes.append(0)
            failed += 1
            continue
        else:
            outputs.append(_fingerprint(abr, result))
            episodes.append(result.episodes_trained)
        finally:
            runner.close()
            durations.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.close(handle, OP_SPAN)
            CURRENT_OP.reset(token)
        delta = runner.fault_log.counters()
        for key in ("retries", "serial_fallbacks"):
            faults[key] = faults.get(key, 0) + delta.get(key, 0)
        if recovered(delta):
            failed += 1
    per_op = DEFAULT_TRAINING.rounds * DEFAULT_TRAINING.episodes_per_round
    rates = [n / d for n, d in zip(episodes, durations)]
    p50_ms = 1e3 * median(durations)
    max_ms = 1e3 * max(durations)
    return Measurement(
        attempted=per_op * len(durations),
        failed=per_op * failed,
        outputs=outputs,
        primary=median(rates),
        end_to_end={
            "throughput_per_s": median(rates),
            "latency_p50_ms": p50_ms,
        },
        named={
            "episodes_per_s": (median(rates), "episodes/s"),
            "train_p50_ms": (p50_ms, "ms"),
            "train_max_ms": (max_ms, "ms"),
            "train_calls": (len(durations), "count"),
        },
        ops=len(durations),
        detail={"op_durations_s": durations, "faults": faults},
    )


def check(state: State, measurements: List[Measurement]) -> Dict[str, object]:
    """A serial-backend ``train()`` of the same inputs must give the same
    final policy, parameter for parameter, and the same held-out QoE."""
    from repro.engine.runner import BatchRunner

    abr, result = state.train(BatchRunner(backend="serial"))
    reference = _fingerprint(abr, result)
    outputs = [out for m in measurements for out in m.outputs]
    mismatched = [i for i, out in enumerate(outputs) if out != reference]
    return {
        "ok": not mismatched,
        "ops_checked": len(outputs),
        "mismatched_ops": mismatched,
        "serial_final_eval_qoe": reference["final_eval_qoe"],
    }


def trace_targets(session, state: State):
    """Rounds have no call of their own: a round starts when the trainer
    asks the curriculum for its specs, so that call opens the round's op
    id (every later span of the round carries it)."""
    tracer = session.tracer
    specs = tracer.original("repro.training.curriculum",
                            "ScenarioCurriculum.training_specs")

    def round_specs(curriculum, count, round_index=0):
        op = str(CURRENT_OP.get()).split("/round-")[0]
        CURRENT_OP.set(f"{op}/round-{round_index}")
        return specs(curriculum, count, round_index=round_index)

    return [("repro.training.curriculum", "ScenarioCurriculum.training_specs",
             round_specs)]
