"""Batched online decisions, bit-identical to the serial ABR paths.

:func:`decide_batch` answers one micro-batch flush: every planner-eligible
request (MPC / Fugu / SENSEI-Fugu with their stock predictors, as
classified by :func:`repro.engine.lockstep.planner_kind`) contributes a
:class:`~repro.engine.lockstep.PlanJob` to one
:func:`~repro.engine.lockstep.plan_batch` call, which merges jobs by
candidate-tree signature and dispatches the shared
``evaluate_candidates_batch`` kernel.  Greedy stock Pensieve-family
sessions (``KIND_RL``) batch differently: their clones share one
:class:`~repro.ml.rl.ActorCriticAgent` (see
:class:`~repro.service.sessions.SessionEntry`), so the flush groups them
by agent, stacks their encoded states, and runs **one actor forward per
policy** followed by a per-row argmax — bitwise the serial ``decide``
because the actor's matmuls are row-stable
(:func:`repro.ml.nn.row_matmul`).  Everything else falls back to the
clone's own ``decide`` — still exact, just not batched.

This module only groups requests; the decision logic is the ABRs' own:

* Each clone's ``plan_scenarios`` builds its scenario list — the very
  method its serial ``decide`` calls, run **exactly once per decision**
  on the session's clone, in request order (the error-distribution
  predictor is stateful).
* SENSEI-Fugu requests run the clone's own proactive-stall gate
  (:meth:`~repro.core.sensei_abr.SenseiFuguABR.stall_pre_gate`,
  ``stall_sets``, ``adopt_stalls``) with one session each: the no-stall
  plans of every session come from one ``plan_batch`` call, the re-plans
  of the sessions whose gate opened from a second.
* The kernel guarantees the rest: ``evaluate_candidates_batch`` is
  elementwise over the batch axis, so co-scheduling any mix of sessions
  cannot change any single session's floats (docs/PERFORMANCE.md).

Every ``plan_batch`` call here runs on the arena kernel (precomputed
per-tree score arenas + preallocated workspaces, docs/PERFORMANCE.md §2),
so the service inherits its throughput directly; a service can opt into
the float32 fast path via ``DecisionService(kernel_dtype="float32")``,
which waives bit-identity for kernel speed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.engine.lockstep import (
    KIND_GENERIC,
    KIND_RL,
    KIND_SENSEI,
    PlanJob,
    plan_batch,
)

__all__ = ["decide_batch"]


def _outcomes(results) -> Tuple[list, list, list]:
    """``(levels, stalls, scores)`` of plan results, as the SENSEI gate
    reads them."""
    return (
        [result.level for result in results],
        [result.proactive_stall_s for result in results],
        [result.score for result in results],
    )


def decide_batch(
    requests: Sequence[Tuple[ABRAlgorithm, str, PlayerObservation]],
) -> List[Decision]:
    """Decide for every ``(clone, kind, observation)`` request in one batch.

    Returns one :class:`Decision` per request, in order.  Clones are
    mutated exactly as their serial ``decide`` would mutate them
    (predictor state, SENSEI's spent proactive budget).
    """
    decisions: List[Optional[Decision]] = [None] * len(requests)
    jobs: List[PlanJob] = []
    # (request index, clone, job, scenarios, SENSEI pre-gate or None)
    meta: list = []
    # agent id -> (agent, [(request index, clone, observation, state)])
    rl_groups: dict = {}
    for index, (clone, kind, observation) in enumerate(requests):
        if kind == KIND_GENERIC:
            decisions[index] = clone.decide(observation)
            continue
        if kind == KIND_RL:
            agent = clone.agent
            group = rl_groups.setdefault(id(agent), (agent, []))
            group[1].append(
                (index, clone, observation, clone.encode_state(observation))
            )
            continue
        horizon = min(clone.horizon, observation.horizon)
        pre_gate = None
        if kind == KIND_SENSEI:
            pre_gate = clone.stall_pre_gate(
                np.array([observation.buffer_s]),
                clone.proactive_spent_s,
                observation.upcoming_weights[None, :horizon],
            )
        scenarios = clone.plan_scenarios(observation)
        job = PlanJob(
            observation=observation,
            horizon=horizon,
            scenarios=scenarios,
            quality_model=clone.quality_model,
            max_level_step=clone.max_level_step,
            use_weights=pre_gate is not None,
            need_rebuffer=pre_gate is not None and bool(pre_gate[0]),
        )
        jobs.append(job)
        meta.append((index, clone, job, scenarios, pre_gate))

    # One stacked actor forward per distinct policy, then a per-row argmax
    # — exactly ``select_action(state, greedy=True)`` for each row, since
    # the batched forward is row-bitwise-stable.  The stall post-processing
    # replicates the serial ``decide`` body verbatim.
    for agent, group in rl_groups.values():
        states = np.stack([state for _, _, _, state in group])
        probabilities = agent.action_probabilities_batch(states)
        actions = np.argmax(probabilities, axis=1)
        for (index, clone, observation, state), action in zip(group, actions):
            decision = clone.action_to_decision(int(action))
            if decision.proactive_stall_s > 0:
                previous = max(observation.last_level, 0)
                decision = Decision(
                    level=previous,
                    proactive_stall_s=decision.proactive_stall_s,
                )
            if clone._capture is not None:
                clone._capture.append((state, int(action)))
            decisions[index] = decision

    if not jobs:
        return decisions

    # Phase 2: SENSEI sessions whose stall gate opened re-plan over the
    # stall options their budget still affords.
    sensei: list = []
    second_jobs: List[PlanJob] = []
    for (index, clone, job, scenarios, pre_gate), result in zip(
        meta, plan_batch(jobs)
    ):
        if pre_gate is None:
            decisions[index] = Decision(level=result.level)
            continue
        opened, stall_sets = clone.stall_sets(
            pre_gate, np.array([result.expected_rebuffer_s]),
            clone.proactive_spent_s,
        )
        sensei.append((index, clone, result, opened, len(second_jobs)))
        second_jobs.extend(
            PlanJob(
                observation=job.observation,
                horizon=job.horizon,
                scenarios=scenarios,
                quality_model=clone.quality_model,
                stall_options=stall_set,
                max_level_step=clone.max_level_step,
                use_weights=True,
            )
            for stall_set in stall_sets
        )
    second = plan_batch(second_jobs)
    for index, clone, result, opened, first in sensei:
        levels, stalls = clone.adopt_stalls(
            clone.proactive_spent_s,
            _outcomes([result]),
            opened,
            _outcomes(second[first:first + opened.size]),
        )
        decisions[index] = Decision(
            level=int(levels[0]), proactive_stall_s=float(stalls[0])
        )
    return decisions
