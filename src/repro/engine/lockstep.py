"""Lockstep multi-session simulation: batch the planner across sessions.

The serial backend walks one :class:`~repro.player.session.StreamingSession`
at a time, so a grid sweep pays the per-chunk Python and small-numpy-op
overhead once per *session*.  The lockstep core runs a whole shard of
:class:`~repro.engine.runner.WorkOrder`s together, chunk-step by chunk-step:

* every session's mutable state lives as one row of a
  :class:`~repro.player.shard.ShardState` — the structure-of-arrays
  counterpart of :class:`~repro.player.session.SessionState` — and the
  whole shard's download times, buffer evolution, stall accounting and
  history rings advance per chunk step as a handful of numpy array
  operations (one batched trace integral per distinct trace) instead of a
  per-session Python loop;
* for the planner ABR families (MPC, Fugu, SENSEI-Fugu) the per-decision
  hot path — throughput prediction and candidate scoring — is evaluated
  *across sessions*: predictor state is kept as arrays over the shard,
  planner inputs (buffer levels, histories, previous levels) are sliced
  straight out of the SoA arrays, and
  :func:`~repro.abr.planner.evaluate_candidates_batch` scores one stacked
  ``(session x stall x scenario x candidate)`` tensor per candidate-tree
  group;
* the Pensieve-family RL policies (greedy *and* exploration mode) run
  through a dedicated batched driver: per-session states are encoded
  straight off the SoA shard arrays, the actor MLP runs one forward per
  decision round across the whole group (row-stable matmuls — see
  :func:`repro.ml.nn.row_matmul`), greedy actions are per-row argmaxes
  and sampled actions draw from per-session RNG streams pinned by each
  order's ``exploration_seed``;
* every other ABR (BBA, rate-based, RL subclasses with overridden
  ``decide``, …) runs through a generic per-session driver: one reset
  clone of the ABR per session, decisions taken one session at a time
  against observations served from the shard rows — the exact
  observations the serial path builds — still amortising the shared SoA
  chunk-step.

Bit-identity rests on elementwise-only numpy arithmetic: the planners
route through the same batch kernel as serial with a one-session stack,
and both the kernel and the SoA stepping (see :mod:`repro.player.shard`)
use only elementwise operations and fixed-order reductions, which IEEE-754
evaluates identically regardless of how many sessions share the array.
Enforced by ``tests/test_lockstep.py`` (including differential fuzzing)
and the golden masters under ``tests/golden/``.

Sessions end at different chunk counts (ragged shards): finished sessions
simply leave the live set while the rest keep stepping.

Exploration-mode RL (``greedy=False``) is batchable only when each work
order pins a per-session RNG stream via
:attr:`~repro.engine.runner.WorkOrder.exploration_seed`: the serial path
then reseeds the agent (:meth:`repro.ml.rl.ActorCriticAgent.
reseed_exploration`) immediately before the session, and the lockstep
driver gives the row its own ``rng_from_seed(exploration_seed)`` stream —
the same generator state drawing from bitwise-equal probability rows, so
the trajectories match checkpoint for checkpoint (fuzzed in
``tests/test_rl_batch.py``).  *Unseeded* exploration orders keep the old
serial fallback: their serial results depend on one RNG stream shared
across sessions in submission order, which no parallel decomposition can
reproduce.
"""

from __future__ import annotations

import copy
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.injector import active_injector, execute_shard_fault
from repro.faults.log import FaultLog, ShardRecoveryWarning
from repro.obs.trace import TRACE, trace_span

from repro.abr.base import ABRAlgorithm
from repro.abr.bba import BufferBasedABR
from repro.abr.fugu import FuguABR
from repro.abr.mpc import ModelPredictiveABR
from repro.abr.planner import (
    enumerate_level_sequences,
    evaluate_candidates_batch,
    kernel_block_sessions,
)
from repro.abr.throughput import (
    ErrorDistributionPredictor,
    HarmonicMeanPredictor,
)
from repro.abr import pensieve as _pensieve
from repro.abr.pensieve import PensieveABR
from repro.core.sensei_abr import SenseiFuguABR, SenseiPensieveABR
from repro.ml.rl import ActorCriticAgent
from repro.player.session import StreamingSession, StreamResult
from repro.player.shard import ShardState
from repro.utils.rand import rng_from_seed
from repro.utils.validation import require


def supports_lockstep(abr: ABRAlgorithm) -> bool:
    """Whether lockstep reproduces serial results for this ABR *on its own*.

    False only for exploration-mode (``greedy=False``) RL policies, whose
    serial results depend on one RNG stream shared across sessions.  Such
    an ABR can still run in lockstep when its *work order* pins a
    per-session stream — see :func:`order_supports_lockstep`, the check
    the engine actually applies.
    """
    return bool(getattr(abr, "greedy", True))


def _is_batched_rl(abr: ABRAlgorithm) -> bool:
    """Whether ``abr`` is a stock Pensieve-family policy the dedicated
    batched RL driver reproduces exactly (exact types only: a subclass may
    override ``encode_state``/``decide``)."""
    return (
        type(abr) in (PensieveABR, SenseiPensieveABR)
        and type(getattr(abr, "agent", None)) is ActorCriticAgent
    )


def order_supports_lockstep(order: "WorkOrder") -> bool:
    """Whether lockstep execution reproduces serial results for this order.

    Greedy ABRs always qualify.  Exploration-mode RL qualifies exactly when
    the order pins a per-session RNG stream (``exploration_seed``) *and*
    the policy is a stock Pensieve-family agent: the serial path then
    reseeds the agent before the session, so the batched driver's
    ``rng_from_seed(exploration_seed)`` row stream replays it bit for bit.
    Unseeded exploration orders (or exotic RL subclasses) keep the serial
    fallback.
    """
    if supports_lockstep(order.abr):
        return True
    return (
        getattr(order, "exploration_seed", None) is not None
        and _is_batched_rl(order.abr)
    )


def run_orders_lockstep(
    orders: Sequence["WorkOrder"],
    fault_log: Optional[FaultLog] = None,
) -> List[StreamResult]:
    """Run work orders through the lockstep core; results align with input.

    Orders are grouped by (ABR instance, player config): each group is one
    lockstep shard.  Sessions are independent (every serial session starts
    with ``abr.reset()``), so executing groups out of submission order
    cannot change any result; the returned list is reassembled in
    submission order regardless.

    A shard that raises is *recovered*, not fatal: its orders are re-run
    one session at a time through the serial reference path — the ground
    truth lockstep is proven bit-identical to — under a loud
    :class:`~repro.faults.log.ShardRecoveryWarning` (promoted to an error
    in the test suite outside the chaos tests, so recovery can never mask
    an engine regression there).  An active
    :class:`~repro.faults.injector.FaultInjector` may inject
    ``raise_in_shard`` faults here; recoveries are counted in
    ``fault_log`` when the caller passes one.
    """
    orders = list(orders)
    results: List[Optional[StreamResult]] = [None] * len(orders)
    shards: Dict[object, List[int]] = {}
    for index, order in enumerate(orders):
        if not order_supports_lockstep(order):
            results[index] = order.run()
            continue
        shards.setdefault(order.config, []).append(index)
    for shard_index, indices in enumerate(shards.values()):
        shard_orders = [orders[index] for index in indices]
        injector = active_injector()
        fault = (
            injector.take_shard_fault(shard_index)
            if injector is not None else None
        )
        try:
            if fault is not None:
                execute_shard_fault(fault)
            with trace_span("engine.lockstep.shard"):
                shard_results = _run_shard(shard_orders)
        except Exception as error:
            warnings.warn(
                f"lockstep: shard {shard_index} ({len(shard_orders)} "
                f"orders) failed with {error!r}; re-running its orders "
                "serially",
                ShardRecoveryWarning,
                stacklevel=2,
            )
            if fault_log is not None:
                fault_log.serial_fallbacks += 1
                fault_log.record(
                    f"lockstep shard {shard_index} recovered serially "
                    f"after {type(error).__name__}"
                )
            shard_results = [order.run() for order in shard_orders]
        for index, result in zip(indices, shard_results):
            results[index] = result
    if TRACE.enabled:
        # Lazy import: the runner module imports lockstep functions
        # lazily, so the reverse edge must not run at module import time.
        from repro.engine.runner import _observe_session_results

        _observe_session_results(results)
    return results


def run_rl_rollouts_lockstep(
    orders: Sequence["WorkOrder"],
    fault_log: Optional[FaultLog] = None,
) -> Tuple[List[StreamResult], List[List[Tuple[np.ndarray, int]]]]:
    """Run RL work orders in lockstep, capturing training trajectories.

    The rollout collector's lockstep entry point: every order must be a
    stock Pensieve-family policy with lockstep support at the order level
    (greedy, or exploration-mode with a pinned ``exploration_seed``).
    Returns ``(results, trajectories)``, both aligned with ``orders``;
    each trajectory is the order's ``(state, action)`` list — bitwise what
    the serial ``begin_capture()``/``end_capture()`` discipline records,
    because the batched driver's states, probabilities and sampled actions
    are bitwise the scalar path's (see :class:`_RLDriver`).

    A shard that raises is recovered through the serial reference path —
    reseed, capture, run — under a :class:`ShardRecoveryWarning`, exactly
    mirroring :func:`run_orders_lockstep`'s recovery contract.
    """
    orders = list(orders)
    for order in orders:
        require(
            _is_batched_rl(order.abr) and order_supports_lockstep(order),
            "run_rl_rollouts_lockstep needs stock Pensieve-family orders "
            "with lockstep support (greedy, or a pinned exploration_seed)",
        )
    results: List[Optional[StreamResult]] = [None] * len(orders)
    trajectories: List[Optional[List[Tuple[np.ndarray, int]]]] = (
        [None] * len(orders)
    )
    shards: Dict[object, List[int]] = {}
    for index, order in enumerate(orders):
        shards.setdefault(order.config, []).append(index)
    for shard_index, indices in enumerate(shards.values()):
        shard_orders = [orders[index] for index in indices]
        capture: Dict[int, List[Tuple[np.ndarray, int]]] = {
            row: [] for row in range(len(shard_orders))
        }
        try:
            with trace_span("engine.lockstep.shard"):
                shard_results = _run_shard(shard_orders, capture=capture)
        except Exception as error:
            warnings.warn(
                f"lockstep: rollout shard {shard_index} "
                f"({len(shard_orders)} orders) failed with {error!r}; "
                "re-running its orders serially",
                ShardRecoveryWarning,
                stacklevel=2,
            )
            if fault_log is not None:
                fault_log.serial_fallbacks += 1
                fault_log.record(
                    f"lockstep rollout shard {shard_index} recovered "
                    f"serially after {type(error).__name__}"
                )
            shard_results = []
            for row, order in enumerate(shard_orders):
                order.abr.begin_capture()
                shard_results.append(order.run())
                capture[row] = order.abr.end_capture()
        for row, index in enumerate(indices):
            results[index] = shard_results[row]
            trajectories[index] = capture[row]
    return results, trajectories


def _run_shard(
    orders: Sequence["WorkOrder"],
    capture: Optional[Dict[int, List[Tuple[np.ndarray, int]]]] = None,
) -> List[StreamResult]:
    """Run one shard of orders (shared player config) in lockstep.

    The *stepping* — download times, buffer evolution, stall accounting,
    history rings — advances as one SoA batch across every order of the
    shard, whatever its ABR; *decisions* are taken per ABR group by the
    most batched driver that reproduces that ABR exactly.  Planner drivers
    go further: instead of calling the kernel themselves they emit *plan
    requests*, and the shard coordinator merges compatible requests
    **across ABR instances** — same candidate tree, stall options,
    scenario count, quality coefficients and weights mode, e.g. several
    MPC or Fugu variants swept in one grid — into shared kernel calls.
    The kernel's bit-identity contract is exactly that adding sessions to
    a call's batch axis cannot change any session's values, so
    cross-instance merging is free of semantic risk by the same argument
    that lets lockstep batch one family.  Sessions are independent (every
    serial session starts with ``abr.reset()``), so interleaving groups
    in one shard cannot change any result.

    ``capture``, when given, maps row index -> list; RL drivers append
    each row's ``(state, action)`` pairs to it — the lockstep counterpart
    of :meth:`PensieveABR.begin_capture`, used by the training rollout
    collector (:func:`run_rl_rollouts_lockstep`).
    """
    sessions = [
        StreamingSession(
            encoded=order.encoded,
            trace=order.trace,
            abr=order.abr,
            config=order.config,
            chunk_weights=order.chunk_weights,
        )
        for order in orders
    ]
    shard = ShardState(sessions)
    groups: Dict[int, List[int]] = {}
    abrs: Dict[int, ABRAlgorithm] = {}
    for row, order in enumerate(orders):
        groups.setdefault(id(order.abr), []).append(row)
        abrs[id(order.abr)] = order.abr
    drivers = [
        (np.array(rows, dtype=int), _driver_for(abrs[abr_id], shard, orders))
        for abr_id, rows in groups.items()
    ]
    if capture is not None:
        for _, driver in drivers:
            require(
                isinstance(driver, _RLDriver),
                "trajectory capture requires every order to use the "
                "batched RL driver",
            )
            driver.capture = capture
    live = shard.live_rows
    num_chunks = shard.num_chunks
    while live.size:
        levels = np.empty(live.size, dtype=int)
        stalls = np.empty(live.size)
        requests: List[_PlanRequest] = []
        finishers = []
        for group_rows, driver in drivers:
            rows = group_rows[num_chunks[group_rows] > shard.step_index]
            if not rows.size:
                continue
            positions = np.searchsorted(live, rows)
            if isinstance(driver, _PlannerDriverBase):
                group_requests, finish = driver.begin_round(rows)
                requests.extend(group_requests)
                finishers.append((positions, finish))
            else:
                group_levels, group_stalls = driver.decide(rows)
                levels[positions] = group_levels
                stalls[positions] = group_stalls
        if requests:
            # Covers request merging/splitting *and* the kernel calls; the
            # kernel's own time lands under the nested ``planner.kernel``
            # span recorded inside evaluate_candidates_batch.
            with trace_span("engine.lockstep.plan"):
                _execute_plan_requests(requests)
        for positions, finish in finishers:
            group_levels, group_stalls = finish()
            levels[positions] = group_levels
            stalls[positions] = group_stalls
        shard.step(live, levels, stalls)
        live = shard.live_rows
    return [
        shard.finalize(
            row, abr_name=order.abr.name, trace_name=order.trace.name
        )
        for row, order in enumerate(orders)
    ]


#: Batch-eligible ABR kinds: which batched decide path reproduces an ABR's
#: ``decide`` exactly.  Anything :data:`KIND_GENERIC` (rate-based,
#: subclasses that may override ``decide``, the seed reference planners)
#: decides one session at a time, which is trivially serial-identical.
KIND_GENERIC = "generic"
KIND_MPC = "mpc"
KIND_FUGU = "fugu"
KIND_SENSEI = "sensei"
KIND_RL = "rl"

#: The exact planner types with the fast planner, and each one's stock
#: predictor type.
_PLANNER_TYPES = {
    ModelPredictiveABR: (KIND_MPC, HarmonicMeanPredictor),
    FuguABR: (KIND_FUGU, ErrorDistributionPredictor),
    SenseiFuguABR: (KIND_SENSEI, ErrorDistributionPredictor),
}


def planner_kind(abr: ABRAlgorithm) -> str:
    """Which batched decide path reproduces ``abr.decide`` exactly.

    Exact-type checks, since a subclass may override ``decide``: the three
    planner classes with their stock predictor and the fast planner
    enabled, and the stock Pensieve-family policies (:data:`KIND_RL`,
    greedy or not); everything else is :data:`KIND_GENERIC`.
    """
    if _is_batched_rl(abr):
        return KIND_RL
    entry = _PLANNER_TYPES.get(type(abr))
    if (
        entry is not None
        and getattr(abr, "use_fast_planner", False)
        and type(abr.predictor) is entry[1]
    ):
        return entry[0]
    return KIND_GENERIC


def _driver_for(
    abr: ABRAlgorithm, shard: ShardState, orders: Sequence["WorkOrder"] = (),
):
    """The most batched driver that still reproduces ``abr.decide`` exactly.

    BBA (exact type) has its own driver; otherwise :func:`planner_kind`
    picks the planner or RL driver, and :data:`KIND_GENERIC` takes the
    per-session path.  ``orders`` carries the shard's work orders so the
    RL driver can read per-row exploration seeds.
    """
    if type(abr) is BufferBasedABR:
        return _BBADriver(abr, shard)
    kind = planner_kind(abr)
    if kind == KIND_RL:
        return _RLDriver(abr, shard, orders)
    if kind == KIND_GENERIC:
        return _PerSessionDriver(abr, shard)
    return _PLANNER_DRIVERS[kind](abr, shard)


# ---------------------------------------------------------------- drivers
#
# A driver's ``decide(rows)`` returns ``(levels, proactive_stalls)`` arrays
# aligned with ``rows`` — the SoA form of the serial path's per-session
# ``Decision`` objects, consumed directly by :meth:`ShardState.step`.


class _PerSessionDriver:
    """Generic fallback: one reset clone of the ABR per session.

    Serial execution reuses one ABR instance with ``reset()`` between
    sessions — the contract that makes sessions independent.  A deep copy of
    the (reset) instance therefore decides identically, and per-session
    clones let independent sessions interleave.  Observations are served
    row by row from the shard arrays and match the serial observations
    exactly (same construction code — see
    :func:`repro.player.session.observation_from_precompute`).
    """

    def __init__(self, abr: ABRAlgorithm, shard: ShardState) -> None:
        self.shard = shard
        self.clones = [copy.deepcopy(abr) for _ in range(shard.num_sessions)]
        for clone in self.clones:
            clone.reset()

    def decide(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        shard = self.shard
        levels = np.zeros(rows.size, dtype=int)
        stalls = np.zeros(rows.size)
        for position, row in enumerate(rows):
            decision = self.clones[row].decide(shard.observe(int(row)))
            levels[position] = int(decision.level)
            stalls[position] = float(decision.proactive_stall_s)
        return levels, stalls


class _BBADriver:
    """Buffer-based adaptation straight off the SoA buffer array.

    BBA's chunk map reads exactly one dynamic input — the buffer level — so
    the lockstep driver applies :meth:`BufferBasedABR.decide`'s arithmetic
    to the whole shard's buffer array at once.  The operations (and
    therefore the chosen levels) are identical to the serial path.
    """

    def __init__(self, abr: BufferBasedABR, shard: ShardState) -> None:
        self.abr = abr
        self.shard = shard
        self.lowest = np.array(
            [encoded.ladder.lowest_level for encoded in shard.encoded],
            dtype=int,
        )
        self.highest = np.array(
            [encoded.ladder.highest_level for encoded in shard.encoded],
            dtype=int,
        )

    def decide(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        shard = self.shard
        reservoir = self.abr.reservoir_s
        cushion = self.abr.cushion_s
        buffer_s = shard.buffer_s[rows]
        num_levels = shard.num_levels[rows]
        fraction = (buffer_s - reservoir) / cushion
        ramp = np.floor(fraction * (num_levels - 1) + 1e-9).astype(int)
        # Inlined ABRAlgorithm.clamp_level on the ramp segment.
        ramp = np.minimum(np.maximum(ramp, 0), num_levels - 1)
        levels = np.where(
            buffer_s <= reservoir,
            self.lowest[rows],
            np.where(buffer_s >= reservoir + cushion, self.highest[rows], ramp),
        )
        return levels, np.zeros(rows.size)


class _RLDriver:
    """Batched Pensieve-family actor–critic policies over the shard rows.

    Mirrors :meth:`PensieveABR.decide` exactly, batched:

    * the state rows are encoded straight off the SoA shard arrays with
      the same elementwise arithmetic :meth:`PensieveABR.encode_state`
      applies to one observation (padding included — the shard's zero
      padding coincides with the scalar encoder's zero fills);
    * one :meth:`ActorCriticAgent.action_probabilities_batch` call per
      decision round replaces per-session forwards; its rows are bitwise
      the scalar probabilities because every actor matmul is row-stable
      (:func:`repro.ml.nn.row_matmul`) and the softmax reduces rows
      independently;
    * greedy policies take per-row argmaxes (same first-max tie break as
      the scalar ``np.argmax``); exploration policies draw each row's
      action from a private ``rng_from_seed(order.exploration_seed)``
      stream — the very generator state the serial path's pre-session
      ``reseed_exploration`` produces, consuming bitwise-equal
      probability rows, hence identical trajectories.

    The agent is read-only here: clones are unnecessary (greedy decide
    touches no mutable agent state, and sampling never touches the shared
    ``agent._rng``), so one driver serves every row of the instance group.

    Setting :attr:`capture` to a ``row -> list`` mapping records each
    row's ``(state, action)`` pairs, exactly like the scalar capture hook
    the trainer uses.
    """

    def __init__(
        self,
        abr: PensieveABR,
        shard: ShardState,
        orders: Sequence["WorkOrder"],
    ) -> None:
        self.abr = abr
        self.shard = shard
        self.agent = abr.agent
        self.cfg = abr.config
        self.greedy = bool(abr.greedy)
        self.stall_options = np.asarray(self.cfg.stall_actions_s, dtype=float)
        self.obs_horizon = shard.config.observation_horizon
        # The scalar encoder writes the ladder's sizes into a
        # cfg.num_levels-wide slot (and would raise on a wider ladder).
        require(
            int(shard.num_levels.max()) <= self.cfg.num_levels,
            "ladder wider than the agent's next-chunk-size slot",
        )
        self.capture: Optional[Dict[int, List[Tuple[np.ndarray, int]]]] = None
        self.rngs: Dict[int, object] = {}
        if not self.greedy:
            for row, order in enumerate(orders):
                if order.abr is not abr:
                    continue
                require(
                    order.exploration_seed is not None,
                    "exploration-mode RL rows need per-order "
                    "exploration seeds to run in lockstep",
                )
                self.rngs[row] = rng_from_seed(int(order.exploration_seed))

    def _padded_history(self, history, rows: np.ndarray) -> np.ndarray:
        """Rectangular histories left-padded/truncated to the agent's
        window — the batched :func:`repro.abr.base.pad_history`."""
        matrix = history.matrix(rows)
        width = matrix.shape[1]
        length = self.cfg.history_length
        if width >= length:
            return matrix[:, width - length:]
        padded = np.zeros((rows.size, length))
        if width:
            padded[:, length - width:] = matrix
        return padded

    def _encode_batch(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), state_dim) states, row ``i`` bitwise equal to the
        scalar ``encode_state(shard.observe(rows[i]))``."""
        shard = self.shard
        cfg = self.cfg
        chunk = shard.step_index
        n = rows.size
        throughput = (
            self._padded_history(shard.throughput_history, rows)
            / _pensieve._THROUGHPUT_SCALE_MBPS
        )
        download_times = (
            self._padded_history(shard.download_time_history, rows)
            / _pensieve._DOWNLOAD_TIME_SCALE_S
        )
        next_sizes = np.zeros((n, cfg.num_levels))
        filled = shard.sizes_all.shape[2]
        next_sizes[:, :filled] = (
            shard.sizes_all[rows, chunk] / _pensieve._CHUNK_SIZE_SCALE_BYTES
        )
        num_chunks = shard.num_chunks[rows]
        scalars = np.empty((n, 3))
        scalars[:, 0] = shard.buffer_s[rows] / _pensieve._BUFFER_SCALE_S
        scalars[:, 1] = (shard.last_levels(rows) + 1) / shard.num_levels[rows]
        scalars[:, 2] = (num_chunks - chunk) / num_chunks
        parts = [throughput, download_times, next_sizes, scalars]
        if cfg.weight_horizon > 0:
            weights = np.ones((n, cfg.weight_horizon))
            weights_all = shard.weights_all
            for offset in range(min(cfg.weight_horizon, self.obs_horizon)):
                valid = chunk + offset < num_chunks
                if not np.any(valid):
                    break
                weights[valid, offset] = weights_all[
                    rows[valid], chunk + offset
                ]
            parts.append(weights)
        states = np.concatenate(parts, axis=1)
        require(
            states.shape[1] == cfg.state_dim, "state encoding size mismatch"
        )
        return states

    def decide(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        states = self._encode_batch(rows)
        probabilities = self.agent.action_probabilities_batch(states)
        cfg = self.cfg
        if self.greedy:
            actions = np.argmax(probabilities, axis=1)
        else:
            actions = np.empty(rows.size, dtype=int)
            num_actions = cfg.num_actions
            for position, row in enumerate(rows):
                actions[position] = int(
                    self.rngs[int(row)].choice(
                        num_actions, p=probabilities[position]
                    )
                )
        # A stall action keeps streaming at the previously chosen level —
        # the scalar decide()'s post-processing, vectorised.
        is_stall = actions >= cfg.num_levels
        levels = np.where(
            is_stall, np.maximum(self.shard.last_levels(rows), 0), actions
        )
        stalls = np.zeros(rows.size)
        if self.stall_options.size and np.any(is_stall):
            stalls[is_stall] = self.stall_options[
                actions[is_stall] - cfg.num_levels
            ]
        if self.capture is not None:
            for position, row in enumerate(rows):
                self.capture[int(row)].append(
                    (states[position].copy(), int(actions[position]))
                )
        return levels, stalls


class _HarmonicMeanState:
    """Vectorised :class:`HarmonicMeanPredictor` over a shard of sessions.

    Stateless like its scalar counterpart; ``predict`` maps a rectangular
    (session, history) matrix to per-session predictions with the same
    arithmetic the scalar predictor applies to each row alone (the axis
    reduction of a <= ``history_length``-wide row is the same fixed-order
    sum ``harmonic_mean`` computes).
    """

    def __init__(self, predictor: HarmonicMeanPredictor) -> None:
        self.window = predictor.window
        self.default_mbps = predictor.default_mbps

    def predict(self, histories: np.ndarray) -> np.ndarray:
        if histories.shape[1] == 0:
            return np.full(histories.shape[0], self.default_mbps)
        recent = histories[:, -self.window:]
        return recent.shape[1] / np.sum(1.0 / recent, axis=1)


class _ErrorDistributionState:
    """Vectorised :class:`ErrorDistributionPredictor` over a shard.

    The scalar predictor's per-session state — ratio count, last
    prediction, histogram counts — lives here as arrays indexed by session.
    ``predict_distribution`` replicates the scalar update order exactly:
    base prediction from the history, ratio recorded against the *previous*
    prediction, then the binned distribution around the new prediction.
    """

    def __init__(
        self, predictor: ErrorDistributionPredictor, num_sessions: int
    ) -> None:
        self.base = _HarmonicMeanState(predictor._base)
        self.num_bins = predictor.num_bins
        self.ratio_range = predictor.ratio_range
        self.bin_centers = predictor._bin_centers
        self.bin_edges = predictor._bin_edges
        self.cold_start_probs = predictor._cold_start_probs
        self.num_ratios = np.zeros(num_sessions, dtype=int)
        self.last_prediction = np.zeros(num_sessions)
        self.bin_counts = np.zeros((num_sessions, self.num_bins), dtype=int)

    def predict_distribution(
        self, live: np.ndarray, histories: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(throughputs, probabilities), each (len(live), num_bins)."""
        prediction = self.base.predict(histories)
        self._record_ratios(live, histories, prediction)
        self.last_prediction[live] = prediction

        smoothed = self.bin_counts[live] + 0.5
        learned = smoothed / smoothed.sum(axis=1)[:, None]
        cold = self.num_ratios[live] < 3
        probabilities = np.where(
            cold[:, None], self.cold_start_probs[None, :], learned
        )
        throughputs = prediction[:, None] * self.bin_centers[None, :]
        return throughputs, probabilities

    def _record_ratios(
        self, live: np.ndarray, histories: np.ndarray, prediction: np.ndarray
    ) -> None:
        if histories.shape[1] == 0:
            return
        previous = self.last_prediction[live]
        mask = previous > 0
        if not np.any(mask):
            return
        ratios = histories[mask, -1] / previous[mask]
        low, high = self.ratio_range
        clipped = np.minimum(np.maximum(ratios, low), high)
        indices = np.searchsorted(self.bin_edges, clipped, side="right") - 1
        indices = np.minimum(np.maximum(indices, 0), self.num_bins - 1)
        recorded = live[mask]
        self.num_ratios[recorded] += 1
        np.add.at(self.bin_counts, (recorded, indices), 1)


class _PlanOutputs:
    """Per-session kernel outputs that plan requests scatter into."""

    __slots__ = ("levels", "stalls", "scores", "rebuffer")

    def __init__(self, count: int) -> None:
        self.levels = np.zeros(count, dtype=int)
        self.stalls = np.zeros(count)
        self.scores = np.zeros(count)
        self.rebuffer = np.zeros(count)


class _PlanRequest:
    """One pending kernel evaluation: sessions sharing one candidate tree.

    Requests whose :attr:`key` matches plan over the *same* memoised
    candidate tree (horizon, ladder, start level, ``max_step``) with the
    same stall set, scenario count, quality coefficients and weights mode;
    :func:`_execute_plan_requests` concatenates them — across ABR
    instances — into one kernel call and scatters each session's results
    into :attr:`out` at :attr:`positions`.  Merging is bit-safe because
    the kernel is elementwise over the session axis.

    Planner inputs are direct arrays, one row per session, gathered by
    whoever emits the request: the lockstep drivers slice the shard's SoA
    matrices, :func:`plan_batch` stacks standalone observations.
    ``weights`` is None for the unweighted objective; ``chunk_duration``
    and ``buffer_capacity`` may be scalars shared by every session.
    """

    __slots__ = (
        "key", "horizon", "start_level", "max_level_step", "stall_options",
        "bitrates", "quality_model", "positions", "buffer_s", "last_levels",
        "scenario_tputs", "scenario_probs", "sizes", "quality", "weights",
        "chunk_duration", "buffer_capacity", "need_rebuffer", "out",
    )

    def __init__(
        self, *, key, start_level, bitrates, quality_model, positions,
        buffer_s, last_levels, scenario_tputs, scenario_probs, sizes,
        quality, weights, chunk_duration, buffer_capacity, need_rebuffer,
        out,
    ) -> None:
        self.key = key
        self.horizon = key[0]
        self.start_level = start_level
        self.max_level_step = key[3]
        self.stall_options = key[4]
        self.bitrates = bitrates
        self.quality_model = quality_model
        self.positions = positions
        self.buffer_s = buffer_s
        self.last_levels = last_levels
        self.scenario_tputs = scenario_tputs
        self.scenario_probs = scenario_probs
        self.sizes = sizes
        self.quality = quality
        self.weights = weights
        self.chunk_duration = chunk_duration
        self.buffer_capacity = buffer_capacity
        self.need_rebuffer = need_rebuffer
        self.out = out

    def scatter(self, levels, stalls, scores, rebuffer) -> None:
        out = self.out
        positions = self.positions
        out.levels[positions] = levels
        out.stalls[positions] = stalls
        out.scores[positions] = scores
        out.rebuffer[positions] = rebuffer


#: Subtree groups smaller than this are merged into one masked-union call:
#: below it the per-call overhead outweighs the extra (masked-out)
#: candidates the union tree evaluates.  The arena kernel's per-call
#: dispatch cost dominates any group below a full cache block (a masked
#: union call over 295 candidates costs barely more than an exact
#: 185-candidate subtree call), so the merge threshold sits at one arena
#: block for the widest common shape (5 levels x horizon 4 x 5 scenarios
#: -> ~23 sessions, :func:`kernel_block_sessions`): anything smaller is
#: cheaper evaluated inside the union, and oversized unions get re-sliced
#: to the block anyway.  Selection is unchanged either way — the mask
#: filters the union tree down to each session's exact subtree, ties
#: included.
MERGE_BELOW = 24

#: Kernel calls are capped at no fewer than this many sessions (the floor
#: of :func:`kernel_block_sessions`); larger buckets are sliced by
#: :func:`_execute_plan_requests`, after cross-family merging.  The
#: kernel's working set per session is a few dozen KB, and once a call
#: outgrows the per-core cache its per-session cost jumps several-fold —
#: two half-size calls are then cheaper than one.  ``None`` disables
#: slicing.
SPLIT_ABOVE = 12


def _tree_groups(
    keys: Sequence[tuple],
) -> Dict[tuple, Tuple[Optional[int], List[int]]]:
    """Kernel-call groups: ``key -> (start_level, positions into keys)``.

    ``keys[i]`` is session ``i``'s request key with its previously played
    level in the start slot: ``(horizon, ladder, last_level,
    max_level_step, stall_options, num_scenarios, coefficients,
    use_weights)``.  Sessions are grouped by candidate-tree signature —
    the previous level matters only under a ``max_step`` restriction —
    which evaluates each group's exact (smallest) subtree.  Groups under
    :data:`MERGE_BELOW` sessions are merged per remaining key into one
    evaluation of the *unrestricted-start* tree with ``start_level ==
    None``; the kernel then masks each merged session down to its own
    subtree, which is an order-preserving first-level filter of the union
    tree, so selection — ties included — matches the per-session tree
    exactly.
    """
    subtree: Dict[tuple, List[int]] = {}
    for position, key in enumerate(keys):
        if key[2] < 0 or key[3] is None:
            key = key[:2] + (-1,) + key[3:]  # one tree regardless of history
        subtree.setdefault(key, []).append(position)
    groups: Dict[tuple, Tuple[Optional[int], List[int]]] = {}
    for key, positions in subtree.items():
        if len(positions) >= MERGE_BELOW:
            groups[key] = (key[2] if key[2] >= 0 else None, positions)
        else:
            merged_key = key[:2] + ("merged",) + key[3:]
            groups.setdefault(merged_key, (None, []))[1].extend(positions)
    return groups


def _coeff_key(quality_model) -> tuple:
    coeffs = quality_model.coefficients
    return (
        coeffs.intercept, coeffs.quality_weight,
        coeffs.rebuffer_weight, coeffs.switch_weight,
    )


#: Shared all-ones weight matrices per shape (the kernel never writes into
#: its weights argument), reused by every unweighted bucket of a process.
_UNIFORM_WEIGHTS: Dict[tuple, np.ndarray] = {}


def _uniform_weights(num_sessions: int, horizon: int) -> np.ndarray:
    weights = _UNIFORM_WEIGHTS.get((num_sessions, horizon))
    if weights is None:
        weights = np.ones((num_sessions, horizon))
        _UNIFORM_WEIGHTS[(num_sessions, horizon)] = weights
    return weights


def _merged(bucket: List[_PlanRequest]) -> _PlanRequest:
    """One request holding a bucket's inputs, concatenated along the
    session axis in bucket order; a scalar every request shares stays a
    scalar."""
    if len(bucket) == 1:
        return bucket[0]
    counts = [r.positions.size for r in bucket]

    def joined(field: str):
        values = [getattr(r, field) for r in bucket]
        first = values[0]
        if first is None or (
            isinstance(first, float) and all(v == first for v in values)
        ):
            return first
        return np.concatenate([
            np.broadcast_to(value, (count,) + np.shape(value)[1:])
            for value, count in zip(values, counts)
        ])

    first = bucket[0]
    return _PlanRequest(
        key=first.key,
        start_level=first.start_level,
        bitrates=first.bitrates,
        quality_model=first.quality_model,
        positions=None,
        buffer_s=joined("buffer_s"),
        last_levels=joined("last_levels"),
        scenario_tputs=joined("scenario_tputs"),
        scenario_probs=joined("scenario_probs"),
        sizes=joined("sizes"),
        quality=joined("quality"),
        # The weights mode is part of the key: a bucket is uniformly
        # weighted or uniformly unweighted.
        weights=joined("weights"),
        chunk_duration=joined("chunk_duration"),
        buffer_capacity=joined("buffer_capacity"),
        need_rebuffer=any(r.need_rebuffer for r in bucket),
        out=None,
    )


def _execute_plan_requests(requests: List[_PlanRequest]) -> None:
    """Run every pending plan request, merging compatible ones.

    The one place the lockstep engine calls the planner kernel.  Requests
    are bucketed by :attr:`_PlanRequest.key`; each bucket is one candidate
    tree evaluated for the concatenation of its requests' sessions, sliced
    into cache-blocked tiles: the per-call session count comes from
    :func:`repro.abr.planner.kernel_block_sessions`, which sizes the
    kernel's working set to the L2 target (never below
    :data:`SPLIT_ABOVE`).  Because the kernel is elementwise over the
    session axis, every session's outputs are bitwise those of evaluating
    its own request alone — whatever the tile size.
    """
    buckets: Dict[tuple, List[_PlanRequest]] = {}
    for request in requests:
        buckets.setdefault(request.key, []).append(request)
    for bucket in buckets.values():
        merged = _merged(bucket)
        horizon = merged.horizon
        last_levels = merged.last_levels
        count = last_levels.size
        weights = (
            merged.weights if merged.weights is not None
            else _uniform_weights(count, horizon)
        )
        durations = merged.chunk_duration
        capacity = merged.buffer_capacity
        candidates = enumerate_level_sequences(
            merged.bitrates.size, horizon, max_step=merged.max_level_step,
            start_level=merged.start_level,
        )
        if merged.start_level is not None or merged.max_level_step is None:
            candidate_mask = None  # the tree is already each session's own
        else:
            candidate_mask = (last_levels[:, None] < 0) | (
                np.abs(candidates[None, :, 0] - last_levels[:, None])
                <= merged.max_level_step
            )

        block = kernel_block_sessions(
            merged.bitrates.size, horizon, merged.max_level_step,
            merged.scenario_tputs.shape[1],
            floor=SPLIT_ABOVE if SPLIT_ABOVE is not None else count,
        )
        slice_size = count if SPLIT_ABOVE is None else min(count, block)
        slices = -(-count // slice_size)
        slice_size = -(-count // slices)
        levels = np.empty(count, dtype=int)
        stalls = np.empty(count)
        scores = np.empty(count)
        rebuffer = np.empty(count)
        for start in range(0, count, slice_size):
            stop = min(count, start + slice_size)
            batch = evaluate_candidates_batch(
                candidates=candidates,
                sizes=merged.sizes[start:stop],
                quality=merged.quality[start:stop],
                weights=weights[start:stop],
                buffer_s=merged.buffer_s[start:stop],
                last_level=last_levels[start:stop],
                scenario_tputs=merged.scenario_tputs[start:stop],
                scenario_probs=merged.scenario_probs[start:stop],
                bitrates_kbps=merged.bitrates,
                quality_model=merged.quality_model,
                stall_options_s=merged.stall_options,
                chunk_duration_s=(
                    durations if isinstance(durations, float)
                    else durations[start:stop]
                ),
                buffer_capacity_s=(
                    capacity if isinstance(capacity, float)
                    else capacity[start:stop]
                ),
                candidate_mask=(
                    None if candidate_mask is None
                    else candidate_mask[start:stop]
                ),
                need_expected_rebuffer=merged.need_rebuffer,
                weights_uniform=merged.weights is None,
            )
            levels[start:stop] = batch.best_level
            stalls[start:stop] = batch.best_stall_s
            scores[start:stop] = batch.best_score
            rebuffer[start:stop] = batch.expected_rebuffer_s
        offset = 0
        for r in bucket:
            stop = offset + r.positions.size
            r.scatter(
                levels[offset:stop], stalls[offset:stop],
                scores[offset:stop], rebuffer[offset:stop],
            )
            offset = stop


class PlanJob:
    """One standalone planner evaluation for :func:`plan_batch`.

    The grid-free counterpart of a shard driver's per-session planner
    round: everything the kernel needs is taken from a single
    :class:`~repro.abr.base.PlayerObservation` plus the scalar scenario
    list the ABR's own predictor produced — exactly the inputs the serial
    ``decide()`` hands :func:`~repro.abr.planner.evaluate_candidates`.
    Jobs submitted together are merged by candidate-tree signature and
    evaluated through the same coordinator as the lockstep grid path, so
    each job's outputs are bitwise those of the serial evaluation.
    """

    __slots__ = (
        "observation", "horizon", "scenario_tputs", "scenario_probs",
        "quality_model", "stall_options", "max_level_step", "use_weights",
        "need_rebuffer", "bitrates", "ladder_key", "coeff_key",
    )

    def __init__(
        self,
        *,
        observation,
        horizon: int,
        scenarios: Sequence[Tuple[float, float]],
        quality_model,
        stall_options: Sequence[float] = (0.0,),
        max_level_step: Optional[int] = None,
        use_weights: bool = False,
        need_rebuffer: bool = False,
    ) -> None:
        if not (1 <= horizon <= observation.horizon):
            raise ValueError(
                f"plan horizon {horizon} outside the observation's "
                f"1..{observation.horizon}"
            )
        if not scenarios:
            raise ValueError("need at least one throughput scenario")
        self.observation = observation
        self.horizon = int(horizon)
        self.scenario_tputs = np.array(
            [t for t, _ in scenarios], dtype=float
        )
        self.scenario_probs = np.array(
            [p for _, p in scenarios], dtype=float
        )
        self.quality_model = quality_model
        self.stall_options = tuple(float(s) for s in stall_options)
        self.max_level_step = max_level_step
        self.use_weights = bool(use_weights)
        self.need_rebuffer = bool(need_rebuffer)
        self.bitrates = np.asarray(
            observation.ladder.bitrates_kbps, dtype=float
        )
        self.ladder_key = tuple(self.bitrates.tolist())
        self.coeff_key = _coeff_key(quality_model)


class PlanResult:
    """Per-job outcome of :func:`plan_batch` (the scalar fields a
    ``decide()`` consumes, mirroring
    :class:`~repro.abr.planner.PlanEvaluation`)."""

    __slots__ = ("level", "proactive_stall_s", "score", "expected_rebuffer_s")

    def __init__(self, level, proactive_stall_s, score, expected_rebuffer_s):
        self.level = level
        self.proactive_stall_s = proactive_stall_s
        self.score = score
        self.expected_rebuffer_s = expected_rebuffer_s


def plan_batch(jobs: Sequence[PlanJob]) -> List[PlanResult]:
    """Evaluate standalone planner jobs through the batched kernel.

    The reusable, grid-free entry point onto the lockstep batch-planning
    path: jobs are grouped by candidate-tree signature with the same
    :func:`_tree_groups` the shard drivers use, stacked into
    :class:`_PlanRequest`\\ s and executed by
    :func:`_execute_plan_requests`.  Because the kernel is elementwise
    over the session axis, each job's result is bitwise equal to
    evaluating it alone — and therefore to the serial ``decide()`` path,
    which routes through the same kernel with a one-session stack.  This
    is what lets an online decision service micro-batch requests from
    unrelated sessions without perturbing any session's decisions.
    """
    if not jobs:
        return []
    out = _PlanOutputs(len(jobs))
    keys = [
        (
            job.horizon, job.ladder_key, int(job.observation.last_level),
            job.max_level_step, job.stall_options, job.scenario_tputs.size,
            job.coeff_key, job.use_weights,
        )
        for job in jobs
    ]
    requests: List[_PlanRequest] = []
    for key, (start_level, positions) in _tree_groups(keys).items():
        group = [jobs[position] for position in positions]
        observations = [job.observation for job in group]
        first = group[0]
        horizon = first.horizon
        requests.append(
            _PlanRequest(
                key=key,
                start_level=start_level,
                bitrates=first.bitrates,
                quality_model=first.quality_model,
                positions=np.asarray(positions, dtype=int),
                buffer_s=np.array([obs.buffer_s for obs in observations]),
                last_levels=np.array(
                    [int(obs.last_level) for obs in observations]
                ),
                scenario_tputs=np.stack(
                    [job.scenario_tputs for job in group]
                ),
                scenario_probs=np.stack(
                    [job.scenario_probs for job in group]
                ),
                sizes=np.stack(
                    [obs.upcoming_sizes_bytes[:horizon] for obs in observations]
                ),
                quality=np.stack(
                    [obs.upcoming_quality[:horizon] for obs in observations]
                ),
                weights=(
                    np.stack([
                        np.asarray(obs.upcoming_weights, dtype=float)[:horizon]
                        for obs in observations
                    ])
                    if first.use_weights else None
                ),
                chunk_duration=np.array(
                    [obs.chunk_duration_s for obs in observations]
                ),
                buffer_capacity=np.array(
                    [obs.buffer_capacity_s for obs in observations]
                ),
                need_rebuffer=any(job.need_rebuffer for job in group),
                out=out,
            )
        )
    with trace_span("engine.lockstep.plan"):
        _execute_plan_requests(requests)
    return [
        PlanResult(
            level=int(out.levels[index]),
            proactive_stall_s=float(out.stalls[index]),
            score=float(out.scores[index]),
            expected_rebuffer_s=float(out.rebuffer[index]),
        )
        for index in range(len(jobs))
    ]


class _PlannerDriverBase:
    """Shared machinery of the batched planner drivers.

    Planner inputs come straight off the shard's SoA arrays (no
    per-session gather) and live sessions are grouped by candidate-tree
    signature (sessions at a different previously-played level or a
    shorter end-of-video horizon plan over different trees).  Instead of
    evaluating each group itself, ``begin_round`` emits the groups as
    :class:`_PlanRequest`\\ s; the shard coordinator merges compatible
    requests across every planner family of the shard and runs one 4-D
    kernel call per merged group.  ``finish()`` then returns the round's
    ``(levels, proactive_stalls)``.
    """

    #: Whether the plan objective weights chunks by sensitivity.
    use_weights = False

    def __init__(self, abr, shard: ShardState) -> None:
        self.abr = abr
        self.shard = shard
        self.quality_model = abr.quality_model
        self.coeff_key = _coeff_key(abr.quality_model)
        self.max_level_step = abr.max_level_step
        self.plan_horizon = abr.horizon
        self.chunk_durations = (
            shard.chunk_duration_shared
            if shard.chunk_duration_shared is not None
            else shard.chunk_duration
        )
        self.obs_horizon = shard.config.observation_horizon
        self.bitrates = [
            np.asarray(encoded.ladder.bitrates_kbps, dtype=float)
            for encoded in shard.encoded
        ]
        self.ladder_keys = [
            tuple(bitrates.tolist()) for bitrates in self.bitrates
        ]

    def _histories(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), samples) throughput histories — rectangular because
        every live session has completed the same number of chunks."""
        return self.shard.throughput_history.matrix(rows)

    def _gather(self, rows: np.ndarray):
        """Per-session planner inputs for one chunk step — array slices of
        the shard state rather than a per-session Python gather."""
        shard = self.shard
        buffer_s = shard.buffer_s[rows]
        last_levels = shard.last_levels(rows)
        horizons = np.minimum(
            min(self.plan_horizon, self.obs_horizon),
            shard.num_chunks[rows] - shard.step_index,
        ).tolist()
        return buffer_s, last_levels, horizons

    def _emit_requests(
        self,
        rows: np.ndarray,
        horizons: List[int],
        last_levels: np.ndarray,
        buffer_s: np.ndarray,
        scenario_tputs: np.ndarray,
        scenario_probs: np.ndarray,
        out: _PlanOutputs,
        stall_sets: Optional[List[tuple]] = None,
        need_rebuffer: bool = False,
    ) -> List[_PlanRequest]:
        """One :class:`_PlanRequest` per candidate-tree group of ``rows``.

        ``stall_sets[i]`` is row ``i``'s stall options (the no-stall round
        by default).  The weights mode is part of the key: merging weighted
        and unweighted rounds would push the unweighted sessions through
        the kernel's (costlier) weighted path — bit-identical, but slower
        than two separate calls.  Zero-padded cells past a shorter video's
        end (or a narrower ladder) in the shard's matrices are never read:
        horizons shrink with the chunks remaining and candidate levels stay
        within the group's ladder.
        """
        shard = self.shard
        chunk = shard.step_index
        if stall_sets is None:
            stall_sets = [(0.0,)] * rows.size
        tail = (scenario_tputs.shape[1], self.coeff_key, self.use_weights)
        keys = [
            (horizon, self.ladder_keys[row], last, self.max_level_step,
             stall_set) + tail
            for row, horizon, last, stall_set in zip(
                rows.tolist(), horizons, last_levels.tolist(), stall_sets
            )
        ]
        durations = self.chunk_durations
        requests = []
        for key, (start_level, positions) in _tree_groups(keys).items():
            positions = np.asarray(positions, dtype=int)
            members = rows[positions]
            window = slice(chunk, chunk + key[0])
            requests.append(
                _PlanRequest(
                    key=key,
                    start_level=start_level,
                    bitrates=self.bitrates[members[0]],
                    quality_model=self.quality_model,
                    positions=positions,
                    buffer_s=buffer_s[positions],
                    last_levels=last_levels[positions],
                    scenario_tputs=scenario_tputs[positions],
                    scenario_probs=scenario_probs[positions],
                    sizes=shard.sizes_all[members, window],
                    quality=shard.quality_all[members, window],
                    weights=(
                        shard.weights_all[members, window]
                        if self.use_weights else None
                    ),
                    chunk_duration=(
                        durations if isinstance(durations, float)
                        else durations[members]
                    ),
                    buffer_capacity=shard.buffer_capacity,
                    need_rebuffer=need_rebuffer,
                    out=out,
                )
            )
        return requests

    def begin_round(self, rows: np.ndarray):
        """The no-stall round: emit its requests, finish with the levels."""
        scenario_tputs, scenario_probs = self._scenarios(rows)
        buffer_s, last_levels, horizons = self._gather(rows)
        out = _PlanOutputs(rows.size)
        requests = self._emit_requests(
            rows, horizons, last_levels, buffer_s, scenario_tputs,
            scenario_probs, out,
        )
        return requests, lambda: (out.levels, out.stalls)


class _MPCDriver(_PlannerDriverBase):
    """Batched :class:`ModelPredictiveABR`: conservative point prediction,
    one scenario, no stalls."""

    def __init__(self, abr: ModelPredictiveABR, shard: ShardState) -> None:
        super().__init__(abr, shard)
        self.predictor = _HarmonicMeanState(abr.predictor)

    def _scenarios(self, rows: np.ndarray):
        """:meth:`ModelPredictiveABR.plan_scenarios` over the rows."""
        predicted = self.predictor.predict(self._histories(rows))
        conservative = predicted / (1.0 + self.abr.robustness_discount)
        return conservative[:, None], np.ones((rows.size, 1))


class _FuguDriver(_PlannerDriverBase):
    """Batched :class:`FuguABR`: expectation over the learned
    throughput-error distribution, no stalls."""

    def __init__(self, abr: FuguABR, shard: ShardState) -> None:
        super().__init__(abr, shard)
        self.predictor = _ErrorDistributionState(
            abr.predictor, shard.num_sessions
        )

    def _scenarios(self, rows: np.ndarray):
        """:meth:`FuguABR.plan_scenarios` over the rows."""
        return self.predictor.predict_distribution(
            rows, self._histories(rows)
        )


class _SenseiFuguDriver(_FuguDriver):
    """Batched :class:`SenseiFuguABR`: Fugu's scenarios, the weighted
    objective, and the ABR's own proactive-stall gate over the live rows.

    Phase one is the mergeable no-stall round.  Its ``finish`` runs the
    gate (:meth:`SenseiFuguABR.stall_sets`) on the no-stall plans, re-plans
    the opened rows over their affordable stall sets — emitted as
    :class:`_PlanRequest`\\ s keyed by stall set — and lets
    :meth:`SenseiFuguABR.adopt_stalls` keep strictly better plans and
    charge each row's stall budget.
    """

    use_weights = True

    def __init__(self, abr: SenseiFuguABR, shard: ShardState) -> None:
        super().__init__(abr, shard)
        self.proactive_spent_s = np.zeros(shard.num_sessions)

    def begin_round(self, rows: np.ndarray):
        abr = self.abr
        shard = self.shard
        scenario_tputs, scenario_probs = self._scenarios(rows)
        buffer_s, last_levels, horizons = self._gather(rows)
        spent = self.proactive_spent_s[rows]
        chunk = shard.step_index
        width = max(horizons)
        weights = shard.weights_all[rows, chunk:chunk + width]
        if min(horizons) < width:
            # Ragged horizons: hide the weights past each row's own.
            weights = np.where(
                np.arange(width) < np.asarray(horizons)[:, None],
                weights, -np.inf,
            )
        pre_gate = abr.stall_pre_gate(buffer_s, spent, weights)
        no_stall = _PlanOutputs(rows.size)
        # When no row passes the plan-independent half of the gate, the
        # no-stall round skips its rebuffer-expectation work.
        requests = self._emit_requests(
            rows, horizons, last_levels, buffer_s, scenario_tputs,
            scenario_probs, no_stall, need_rebuffer=bool(pre_gate.any()),
        )

        def finish() -> Tuple[np.ndarray, np.ndarray]:
            opened, stall_sets = abr.stall_sets(
                pre_gate, no_stall.rebuffer, spent
            )
            with_stalls = _PlanOutputs(opened.size)
            if opened.size:
                with trace_span("engine.lockstep.plan"):
                    _execute_plan_requests(self._emit_requests(
                        rows[opened], [horizons[p] for p in opened],
                        last_levels[opened], buffer_s[opened],
                        scenario_tputs[opened], scenario_probs[opened],
                        with_stalls, stall_sets=stall_sets,
                    ))
            levels, stalls = abr.adopt_stalls(
                spent,
                (no_stall.levels, no_stall.stalls, no_stall.scores),
                opened,
                (with_stalls.levels, with_stalls.stalls, with_stalls.scores),
            )
            self.proactive_spent_s[rows] = spent
            return levels, stalls

        return requests, finish


_PLANNER_DRIVERS = {
    KIND_MPC: _MPCDriver,
    KIND_FUGU: _FuguDriver,
    KIND_SENSEI: _SenseiFuguDriver,
}
