"""SENSEI's sensitivity-aware ABR variants (§5).

Both variants take the per-chunk weights of upcoming chunks as an extra
input, reweight the QoE objective (Eq. 4) and gain a new action — scheduling
a short proactive rebuffering at a chunk boundary even when the buffer is
not empty — so quality can be shifted from low- to high-sensitivity chunks.

* :class:`SenseiFuguABR` augments the Fugu/MPC planner: the plan score
  weights each chunk's quality by its sensitivity and the candidate set
  includes {0, 1, 2}-second proactive stalls before the next chunk.
* :class:`SenseiPensieveABR` augments the Pensieve agent: the weights of the
  next ``h`` chunks join the state, stall actions join the action space, and
  the reward is the weighted chunk quality.  It must be (re)trained like
  Pensieve; :func:`make_sensei_pensieve` builds a ready-to-train instance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.abr.fugu import FuguABR
from repro.abr.pensieve import PensieveABR, PensieveConfig
from repro.abr.planner import enumerate_level_sequences, evaluate_candidates
from repro.abr.throughput import ErrorDistributionPredictor
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require

#: Rebuffering durations SENSEI may schedule at a chunk boundary (§5.2).
DEFAULT_STALL_OPTIONS_S = (0.0, 1.0, 2.0)

#: A proactive stall only pays when some later chunk of the horizon is this
#: much more sensitive than the next one.
WEIGHT_SHIFT_FACTOR = 1.05


class SenseiFuguABR(ABRAlgorithm):
    """SENSEI applied to Fugu (Eq. 4): weighted objective + proactive stalls.

    Parameters
    ----------
    horizon:
        Planning horizon h (the paper picks 5; gains flatten beyond 4).
    quality_model:
        Per-chunk quality model q(b, t) (KSQI).
    predictor:
        Probabilistic throughput predictor (as in Fugu).
    stall_options_s:
        Proactive stall durations considered before the next chunk.
    max_level_step:
        Optional per-chunk level-change cap pruning the candidate set.
    min_stall_buffer_s:
        Proactive stalls are only considered when the buffer is at least this
        full, so the new action never *creates* an imminent involuntary stall.
    stall_risk_threshold_s:
        Proactive stalls are only considered when the best no-stall plan
        already predicts at least this much involuntary rebuffering over the
        horizon — i.e. the stall is insurance against a stall that is likely
        anyway, shifted to a low-sensitivity moment (Figure 11 c vs d), not
        gratuitous hedging.
    use_fast_planner:
        Use the memoised candidate trees and vectorised evaluator (default).
        ``False`` selects the seed reference paths — kept for equivalence
        tests and the engine perf baseline.
    """

    name = "SENSEI-Fugu"

    def __init__(
        self,
        horizon: int = 4,
        quality_model: Optional[KSQIModel] = None,
        predictor: Optional[ErrorDistributionPredictor] = None,
        stall_options_s: Sequence[float] = DEFAULT_STALL_OPTIONS_S,
        max_level_step: Optional[int] = 2,
        min_stall_buffer_s: float = 4.0,
        stall_risk_threshold_s: float = 0.5,
        max_total_proactive_stall_s: float = 4.0,
        use_fast_planner: bool = True,
    ) -> None:
        require(horizon >= 1, "horizon must be >= 1")
        self.horizon = int(horizon)
        self.quality_model = quality_model if quality_model is not None else KSQIModel()
        self.predictor = (
            predictor if predictor is not None else ErrorDistributionPredictor()
        )
        self.stall_options_s = tuple(float(s) for s in stall_options_s)
        self.max_level_step = max_level_step
        self.min_stall_buffer_s = float(min_stall_buffer_s)
        self.stall_risk_threshold_s = float(stall_risk_threshold_s)
        self.max_total_proactive_stall_s = float(max_total_proactive_stall_s)
        self.use_fast_planner = bool(use_fast_planner)
        #: Proactive stall seconds this session has spent, as the
        #: one-session budget array the stall gate updates in place.
        self.proactive_spent_s = np.zeros(1)

    def reset(self) -> None:
        self.predictor.reset()
        self.proactive_spent_s = np.zeros(1)

    #: SENSEI-Fugu plans over Fugu's throughput-error distribution.
    plan_scenarios = FuguABR.plan_scenarios

    def decide(self, observation: PlayerObservation) -> Decision:
        """Plan with the sensitivity-weighted objective (Eq. 4)."""
        horizon = min(self.horizon, observation.horizon)
        scenarios = self.plan_scenarios(observation)
        candidates = enumerate_level_sequences(
            observation.ladder.num_levels,
            horizon,
            max_step=self.max_level_step,
            start_level=observation.last_level,
            use_cache=self.use_fast_planner,
        )

        def plan(stall_options_s):
            return evaluate_candidates(
                observation,
                candidates,
                throughput_scenarios=scenarios,
                quality_model=self.quality_model,
                weights=observation.upcoming_weights,
                stall_options_s=stall_options_s,
                vectorized=self.use_fast_planner,
            )

        spent = self.proactive_spent_s
        pre_gate = self.stall_pre_gate(
            np.array([observation.buffer_s]),
            spent,
            observation.upcoming_weights[None, :horizon],
        )
        evaluation = plan((0.0,))
        opened, stall_sets = self.stall_sets(
            pre_gate, np.array([evaluation.expected_rebuffer_s]), spent
        )
        levels, stalls = self.adopt_stalls(
            spent,
            _outcomes([evaluation]),
            opened,
            _outcomes([plan(stall_set) for stall_set in stall_sets]),
        )
        return Decision(level=int(levels[0]), proactive_stall_s=float(stalls[0]))

    # ----------------------------------------------------------- stall gate
    #
    # The proactive stall (§5.2) is considered only when a stall is likely
    # anyway, the buffer can absorb it, a later chunk is more sensitive and
    # the session's stall budget is not spent; it is kept only when it
    # strictly beats the no-stall plan.  The three steps below are that
    # gate, written once over arrays of N sessions: ``decide`` runs them
    # with N=1, the lockstep driver with a shard's live rows and the
    # decision service once per request.

    def stall_pre_gate(
        self,
        buffer_s: np.ndarray,
        spent_s: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        """Sessions that may consider a stall, before any planning.

        ``weights`` is ``(N, H)``: each session's upcoming weights over its
        planning horizon, padded with ``-inf`` past a horizon shorter than
        ``H``.  The gate needs more than one stall option, a buffer at or
        above the floor, an unspent budget with at least one option still
        affordable, and a later chunk more sensitive than the next one by
        :data:`WEIGHT_SHIFT_FACTOR`.
        """
        if len(self.stall_options_s) < 2 or weights.shape[1] < 2:
            return np.zeros(buffer_s.shape[0], dtype=bool)
        gate = (
            (buffer_s >= self.min_stall_buffer_s)
            & (spent_s < self.max_total_proactive_stall_s)
            & (min(self.stall_options_s) <= self._allowance_s(spent_s))
        )
        if not gate.any():
            return gate
        return gate & (
            weights[:, 1:].max(axis=1) > weights[:, 0] * WEIGHT_SHIFT_FACTOR
        )

    def stall_sets(
        self,
        pre_gate: np.ndarray,
        expected_rebuffer_s: np.ndarray,
        spent_s: np.ndarray,
    ) -> Tuple[np.ndarray, List[Tuple[float, ...]]]:
        """Where the gate opens after the no-stall plan, and with what.

        Returns the positions whose no-stall plan predicts at least
        ``stall_risk_threshold_s`` of rebuffering (among those passing
        ``pre_gate``), and for each the stall options its remaining
        budget affords.
        """
        opened = np.flatnonzero(
            pre_gate & (expected_rebuffer_s >= self.stall_risk_threshold_s)
        )
        if not opened.size:
            return opened, []
        return opened, [
            tuple(s for s in self.stall_options_s if s <= allowance)
            for allowance in self._allowance_s(spent_s[opened])
        ]

    def _allowance_s(self, spent_s: np.ndarray) -> np.ndarray:
        """The longest stall each session's remaining budget affords."""
        return self.max_total_proactive_stall_s - spent_s + 1e-9

    def adopt_stalls(
        self,
        spent_s: np.ndarray,
        no_stall: Sequence[Sequence],
        opened: np.ndarray,
        with_stalls: Sequence[Sequence],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The final ``(levels, stalls)`` of N sessions.

        ``no_stall`` is the ``(levels, stalls, scores)`` of the no-stall
        plans of all N sessions, ``with_stalls`` those of the re-plans of
        the ``opened`` sessions over their stall sets.  A re-plan wins only
        on a strictly higher score; the chosen stalls are added to
        ``spent_s`` in place.
        """
        levels = np.array(no_stall[0], dtype=int)
        stalls = np.array(no_stall[1], dtype=float)
        if opened.size:
            better = np.asarray(with_stalls[2]) > np.asarray(no_stall[2])[opened]
            levels[opened] = np.where(better, with_stalls[0], levels[opened])
            stalls[opened] = np.where(better, with_stalls[1], stalls[opened])
        spent_s += stalls
        return levels, stalls


def _outcomes(evaluations) -> Tuple[list, list, list]:
    """``(levels, stalls, scores)`` of plan evaluations, as the gate reads
    them."""
    return (
        [evaluation.best_level for evaluation in evaluations],
        [evaluation.best_stall_s for evaluation in evaluations],
        [evaluation.best_score for evaluation in evaluations],
    )


class SenseiPensieveABR(PensieveABR):
    """SENSEI applied to Pensieve: augmented state, actions and reward.

    The class only changes the default configuration and the name; the
    state/action/reward plumbing in :class:`PensieveABR` already honours
    ``weight_horizon`` and ``stall_actions_s`` when they are non-trivial,
    and :class:`~repro.abr.pensieve.PensieveTrainer` reweights the reward
    whenever per-video weights are supplied.
    """

    name = "SENSEI-Pensieve"
    policy_kind = "sensei-pensieve"

    def __init__(
        self,
        config: Optional[PensieveConfig] = None,
        quality_model: Optional[KSQIModel] = None,
        greedy: bool = True,
    ) -> None:
        if config is None:
            config = PensieveConfig(
                weight_horizon=5,
                stall_actions_s=(1.0, 2.0),
            )
        require(
            config.weight_horizon >= 1,
            "SENSEI-Pensieve needs weights in its state (weight_horizon >= 1)",
        )
        super().__init__(config=config, quality_model=quality_model, greedy=greedy)


def make_sensei_pensieve(
    num_levels: int = 5,
    history_length: int = 8,
    weight_horizon: int = 5,
    stall_actions_s: Tuple[float, ...] = (1.0, 2.0),
    hidden_dims: Tuple[int, ...] = (64, 32),
    seed: int = 47,
    quality_model: Optional[KSQIModel] = None,
) -> SenseiPensieveABR:
    """Build a SENSEI-Pensieve agent with an explicit configuration."""
    config = PensieveConfig(
        history_length=history_length,
        num_levels=num_levels,
        weight_horizon=weight_horizon,
        stall_actions_s=stall_actions_s,
        hidden_dims=hidden_dims,
        seed=seed,
    )
    return SenseiPensieveABR(config=config, quality_model=quality_model)
