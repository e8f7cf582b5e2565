"""RobustMPC-style model-predictive ABR.

Enumerates bitrate plans over a short horizon, evaluates them against a
conservative (discounted harmonic-mean) throughput prediction using the
KSQI per-chunk quality model, and commits the first step.  Kept primarily
as a well-understood reference point and as the shared ancestor of the Fugu
implementation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.abr.base import ABRAlgorithm, Decision, PlayerObservation
from repro.abr.planner import enumerate_level_sequences, evaluate_candidates
from repro.abr.throughput import HarmonicMeanPredictor, ThroughputPredictor
from repro.qoe.ksqi import KSQIModel
from repro.utils.validation import require


class ModelPredictiveABR(ABRAlgorithm):
    """MPC lookahead ABR with a robust throughput discount.

    Parameters
    ----------
    horizon:
        Number of future chunks planned over.
    robustness_discount:
        The throughput prediction is divided by (1 + discount), mirroring
        RobustMPC's pessimistic correction.
    quality_model:
        Per-chunk quality model used as the planning objective (KSQI).
    max_level_step:
        Optional cap on per-chunk level changes to prune the search space.
    use_fast_planner:
        Use the memoised candidate trees and vectorised evaluator (default).
        ``False`` selects the seed reference paths — kept for equivalence
        tests and the engine perf baseline.
    """

    name = "MPC"

    def __init__(
        self,
        horizon: int = 4,
        robustness_discount: float = 0.25,
        quality_model: Optional[KSQIModel] = None,
        predictor: Optional[ThroughputPredictor] = None,
        max_level_step: Optional[int] = 2,
        use_fast_planner: bool = True,
    ) -> None:
        require(horizon >= 1, "horizon must be >= 1")
        require(robustness_discount >= 0, "robustness_discount must be >= 0")
        self.horizon = int(horizon)
        self.robustness_discount = float(robustness_discount)
        self.quality_model = quality_model if quality_model is not None else KSQIModel()
        self.predictor = predictor if predictor is not None else HarmonicMeanPredictor()
        self.max_level_step = max_level_step
        self.use_fast_planner = bool(use_fast_planner)

    def reset(self) -> None:
        self.predictor.reset()

    def plan_scenarios(
        self, observation: PlayerObservation
    ) -> List[Tuple[float, float]]:
        """The one conservative scenario, ``predicted / (1 + discount)``.

        Advances the predictor, so it runs exactly once per decision.
        """
        predicted = self.predictor.predict(observation)
        return [(predicted / (1.0 + self.robustness_discount), 1.0)]

    def decide(self, observation: PlayerObservation) -> Decision:
        """Plan over the horizon and return the first step's level."""
        horizon = min(self.horizon, observation.horizon)
        scenarios = self.plan_scenarios(observation)
        candidates = enumerate_level_sequences(
            observation.ladder.num_levels,
            horizon,
            max_step=self.max_level_step,
            start_level=observation.last_level,
            use_cache=self.use_fast_planner,
        )
        evaluation = evaluate_candidates(
            observation,
            candidates,
            throughput_scenarios=scenarios,
            quality_model=self.quality_model,
            vectorized=self.use_fast_planner,
        )
        return Decision(level=evaluation.best_level)
