"""Differential tests for the arena-compiled planner kernel.

Three layers of evidence that the arena rebuild of
``evaluate_candidates_batch`` changed the *speed* and nothing else:

* **Property (hypothesis):** on randomly drawn batches — any session
  count, scenario count, ladder size, horizon, ``max_step`` mask,
  non-uniform weights, multi-stall options — the arena float64 kernel is
  *bitwise* identical to the retained ``legacy`` kernel (the pre-arena
  implementation, kept precisely as this oracle).
* **Float32 vs float64:** over inputs derived from the golden-master
  content (the canonical ``tests/golden/`` video, same synthesis seeds),
  the opt-in float32 fast path matches float64 scores within tolerance
  and picks the same argmax level everywhere.
* **Config plumbing:** the process default is ``("arena", "float64")``
  — the fast-but-inexact float32 path can never turn itself on — and
  the derived caches (switch terms, arenas) are LRU-bounded with
  counted evictions, and the arena workspaces stay within their byte
  budget on ragged batch sizes without changing any result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr import planner
from repro.abr.planner import (
    clear_plan_cache,
    enumerate_level_sequences,
    evaluate_candidates_batch,
    kernel_block_sessions,
    kernel_config,
    set_kernel_dtype,
    set_kernel_impl,
)
from repro.qoe.ksqi import KSQIModel
from repro.video.chunk import DEFAULT_LADDER
from repro.video.encoder import SyntheticEncoder
from repro.video.video import SourceVideo

RESULT_FIELDS = (
    "best_level", "best_stall_s", "best_score", "expected_rebuffer_s"
)


def _batch_inputs(
    seed: int,
    num_sessions: int,
    num_scenarios: int,
    levels: int,
    horizon: int,
    max_step,
    weighted: bool,
    num_stalls: int,
    need_rebuffer: bool,
):
    """One randomly drawn but fully deterministic kernel call."""
    rng = np.random.default_rng(seed)
    candidates = enumerate_level_sequences(levels, horizon, max_step=max_step)
    sizes = rng.uniform(1e5, 5e6, size=(num_sessions, horizon, levels))
    sizes.sort(axis=2)
    quality = rng.uniform(5, 98, size=(num_sessions, horizon, levels))
    quality.sort(axis=2)
    weights = (
        rng.uniform(0.25, 2.0, size=(num_sessions, horizon))
        if weighted else np.ones((num_sessions, horizon))
    )
    last_level = rng.integers(-1, levels, size=num_sessions)
    tputs = rng.uniform(0.2, 12.0, size=(num_sessions, num_scenarios))
    probs = rng.uniform(0.05, 1.0, size=(num_sessions, num_scenarios))
    probs /= probs.sum(axis=1, keepdims=True)
    # An arbitrary-but-valid mask: the engine's max_step feasibility test
    # plus random extra knockouts, never masking a whole row.
    step = max_step if max_step is not None else levels
    mask = (last_level[:, None] < 0) | (
        np.abs(candidates[None, :, 0] - last_level[:, None]) <= step
    )
    knockout = rng.random(mask.shape) < 0.2
    knockout[np.arange(num_sessions), mask.argmax(axis=1)] = False
    mask = mask & ~knockout
    bitrates = np.sort(rng.uniform(200, 6000, size=levels))
    return dict(
        candidates=candidates,
        sizes=sizes,
        quality=quality,
        weights=weights,
        buffer_s=rng.uniform(0.0, 24.0, size=num_sessions),
        last_level=last_level,
        scenario_tputs=tputs,
        scenario_probs=probs,
        bitrates_kbps=bitrates,
        quality_model=KSQIModel(),
        stall_options_s=tuple(np.linspace(0.0, 2.0, num_stalls)),
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        candidate_mask=mask,
        need_expected_rebuffer=need_rebuffer,
        weights_uniform=not weighted,
    )


def _assert_bitwise_equal(a, b, context):
    for field in RESULT_FIELDS:
        assert np.array_equal(
            np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
        ), (context, field)
    assert a.num_candidates == b.num_candidates, context


class TestArenaMatchesLegacyBitwise:
    """Arena float64 is bit-identical to the pre-arena kernel."""

    @given(
        seed=st.integers(0, 2**31),
        num_sessions=st.integers(1, 14),
        num_scenarios=st.integers(1, 6),
        levels=st.integers(3, 6),
        max_step=st.sampled_from([None, 1, 2]),
        weighted=st.booleans(),
        num_stalls=st.integers(1, 3),
        need_rebuffer=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_batches(
        self, seed, num_sessions, num_scenarios, levels, max_step,
        weighted, num_stalls, need_rebuffer,
    ):
        kwargs = _batch_inputs(
            seed, num_sessions, num_scenarios, levels, horizon=4,
            max_step=max_step, weighted=weighted, num_stalls=num_stalls,
            need_rebuffer=need_rebuffer,
        )
        legacy = evaluate_candidates_batch(**kwargs, kernel_impl="legacy")
        arena = evaluate_candidates_batch(
            **kwargs, kernel_impl="arena", kernel_dtype="float64"
        )
        _assert_bitwise_equal(arena, legacy, (seed, num_sessions))

    @given(seed=st.integers(0, 2**31), horizon=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_random_horizons(self, seed, horizon):
        kwargs = _batch_inputs(
            seed, num_sessions=5, num_scenarios=3, levels=4,
            horizon=horizon, max_step=2, weighted=True, num_stalls=2,
            need_rebuffer=True,
        )
        legacy = evaluate_candidates_batch(**kwargs, kernel_impl="legacy")
        arena = evaluate_candidates_batch(**kwargs, kernel_impl="arena")
        _assert_bitwise_equal(arena, legacy, (seed, horizon))

    def test_padded_mixed_ladder_width(self):
        """Sizes/quality wider than the ladder (mixed-ladder shards)."""
        kwargs = _batch_inputs(
            3, num_sessions=4, num_scenarios=2, levels=4, horizon=4,
            max_step=2, weighted=False, num_stalls=1, need_rebuffer=False,
        )
        pad = np.zeros((4, 4, 2))
        kwargs["sizes"] = np.concatenate([kwargs["sizes"], pad + 1.0], axis=2)
        kwargs["quality"] = np.concatenate([kwargs["quality"], pad], axis=2)
        legacy = evaluate_candidates_batch(**kwargs, kernel_impl="legacy")
        arena = evaluate_candidates_batch(**kwargs, kernel_impl="arena")
        _assert_bitwise_equal(arena, legacy, "padded")


def _golden_grid_inputs():
    """Kernel inputs derived from the golden-master canonical content.

    Same synthesis seeds as ``tests/test_golden.py``: sliding horizon
    windows over the golden video's per-chunk size/quality tables become
    the session batch, crossed with a deterministic buffer/throughput
    grid.
    """
    source = SourceVideo.synthesize(
        "golden-sports", "sports", duration_s=64.0, chunk_duration_s=4.0,
        seed=1207,
    )
    video = SyntheticEncoder(seed=1208).encode(source, DEFAULT_LADDER)
    horizon = 4
    sizes = np.stack([
        np.stack([video.chunks[i + k].sizes_bytes for k in range(horizon)])
        for i in range(video.num_chunks - horizon)
    ])
    quality = np.stack([
        np.stack([video.chunks[i + k].quality for k in range(horizon)])
        for i in range(video.num_chunks - horizon)
    ])
    num_sessions = sizes.shape[0]
    levels = sizes.shape[2]
    candidates = enumerate_level_sequences(levels, horizon, max_step=2)
    rng = np.random.default_rng(1209)
    last_level = rng.integers(-1, levels, size=num_sessions)
    tputs = np.stack([
        np.linspace(0.4, 9.0, 5) * (0.6 + 0.1 * (i % 5))
        for i in range(num_sessions)
    ])
    probs = np.full((num_sessions, 5), 0.2)
    mask = (last_level[:, None] < 0) | (
        np.abs(candidates[None, :, 0] - last_level[:, None]) <= 2
    )
    return dict(
        candidates=candidates,
        sizes=sizes,
        quality=quality,
        weights=rng.uniform(0.5, 1.5, size=(num_sessions, horizon)),
        buffer_s=np.linspace(0.5, 22.0, num_sessions),
        last_level=last_level,
        scenario_tputs=tputs,
        scenario_probs=probs,
        bitrates_kbps=np.asarray(DEFAULT_LADDER.bitrates_kbps, dtype=float),
        quality_model=KSQIModel(),
        stall_options_s=(0.0, 0.5, 1.0),
        chunk_duration_s=4.0,
        buffer_capacity_s=30.0,
        candidate_mask=mask,
        need_expected_rebuffer=True,
        weights_uniform=False,
    )


class TestFloat32FastPath:
    """The opt-in float32 path tracks float64 on golden-derived inputs."""

    def test_tolerance_and_argmax_agreement(self):
        kwargs = _golden_grid_inputs()
        f64 = evaluate_candidates_batch(
            **kwargs, kernel_impl="arena", kernel_dtype="float64"
        )
        f32 = evaluate_candidates_batch(
            **kwargs, kernel_impl="arena", kernel_dtype="float32"
        )
        np.testing.assert_allclose(
            f32.best_score, f64.best_score, rtol=1e-3, atol=1e-3
        )
        np.testing.assert_allclose(
            f32.expected_rebuffer_s, f64.expected_rebuffer_s, atol=5e-3
        )
        agree = np.mean(f32.best_level == f64.best_level)
        assert agree == 1.0, f"argmax agreement {agree:.3f} < 1.0"
        assert np.array_equal(f32.best_stall_s, f64.best_stall_s)

    def test_f32_outputs_are_float64(self):
        """Downstream consumers never see float32 leak out of the kernel."""
        kwargs = _golden_grid_inputs()
        result = evaluate_candidates_batch(
            **kwargs, kernel_impl="arena", kernel_dtype="float32"
        )
        assert result.best_score.dtype == np.float64
        assert result.expected_rebuffer_s.dtype == np.float64


class TestKernelConfig:
    """Process-wide defaults, env plumbing and per-call overrides."""

    def test_default_is_arena_float64(self):
        assert kernel_config() == ("arena", "float64")

    def test_f32_requires_explicit_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_F32", raising=False)
        assert planner._dtype_from_env() == "float64"
        for flag in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_KERNEL_F32", flag)
            assert planner._dtype_from_env() == "float32"
        monkeypatch.setenv("REPRO_KERNEL_F32", "0")
        assert planner._dtype_from_env() == "float64"

    def test_set_and_restore(self):
        try:
            assert set_kernel_dtype("float32") == "float32"
            assert set_kernel_impl("legacy") == "legacy"
            assert kernel_config() == ("legacy", "float32")
        finally:
            set_kernel_dtype(None)
            set_kernel_impl(None)
        assert kernel_config() == ("arena", "float64")

    def test_rejects_unknown_values(self):
        with pytest.raises(Exception):
            set_kernel_impl("simd")
        with pytest.raises(Exception):
            evaluate_candidates_batch(
                **_batch_inputs(1, 2, 1, 4, 4, 1, False, 1, False),
                kernel_dtype="float16",
            )


class TestDerivedCacheBounds:
    """Switch-term and arena caches are LRU-bounded with counted evictions."""

    def test_eviction_counters(self, monkeypatch):
        monkeypatch.setattr(planner, "_DERIVED_CACHE_CAP", 4)
        clear_plan_cache()
        before = dict(planner._CACHE_EVICTIONS)
        candidates = enumerate_level_sequences(4, 3, max_step=1)
        assert not candidates.flags.writeable  # cacheable
        ladders = [
            np.linspace(100.0 * (i + 1), 5000.0 + i, 4) for i in range(8)
        ]
        for bitrates in ladders:
            planner._switch_constants(candidates, bitrates)
            planner._arena_for(candidates, bitrates)
        assert len(planner._SWITCH_TERMS) <= 4
        assert len(planner._ARENAS) <= 4
        assert planner._CACHE_EVICTIONS["switch_terms"] >= before["switch_terms"] + 4
        assert planner._CACHE_EVICTIONS["arenas"] >= before["arenas"] + 4
        # Hits refresh recency: re-touching the oldest survivor keeps it.
        survivor = next(iter(planner._ARENAS))
        planner._arena_for(*_cache_entry_args(planner._ARENAS, survivor))
        planner._arena_for(candidates, np.linspace(99.0, 6001.0, 4))
        assert survivor in planner._ARENAS
        clear_plan_cache()

    def test_writable_candidates_never_cached(self):
        clear_plan_cache()
        candidates = enumerate_level_sequences(4, 3, max_step=1).copy()
        assert candidates.flags.writeable
        planner._arena_for(candidates, np.linspace(100.0, 4000.0, 4))
        assert len(planner._ARENAS) == 0
        clear_plan_cache()


def _allocated_bytes(ws) -> int:
    """Bytes a workspace's arrays own (``dt_nodes`` are views)."""
    total = 0
    for name in ws.__slots__:
        value = getattr(ws, name)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif name != "dt_nodes":
            total += sum(array.nbytes for array in value)
    return total


def _retained_bytes() -> int:
    return sum(_allocated_bytes(ws) for ws, _ in planner._WORKSPACES.values())


class TestWorkspaceCache:
    """Arena workspaces live in one process-wide LRU bounded by bytes."""

    #: (levels, max_step) per ladder: distinct candidate trees, plus a
    #: fresh random bitrate ladder for every call.
    LADDERS = ((3, 2), (4, 2), (5, 2), (4, None))

    @staticmethod
    def _arena_f64(kwargs):
        return evaluate_candidates_batch(
            **kwargs, kernel_impl="arena", kernel_dtype="float64"
        )

    def test_ragged_batches_stay_within_byte_budget(self):
        budget = 2 * planner._KERNEL_L2_BYTES
        clear_plan_cache()
        evictions = planner._WORKSPACE_STATS["evictions"]
        # Two calls per (N, ladder): the second runs on the workspace the
        # first just wrote.
        calls = [
            _batch_inputs(
                1000 * num_sessions + 10 * index + repeat, num_sessions, 5,
                levels, horizon=4, max_step=max_step,
                weighted=(num_sessions + repeat) % 2 == 0,
                num_stalls=1 + num_sessions % 2,
                need_rebuffer=num_sessions % 3 == 0,
            )
            for num_sessions in range(1, 65)
            for index, (levels, max_step) in enumerate(self.LADDERS)
            for repeat in range(2)
        ]
        warm = []
        for kwargs in calls:
            warm.append(self._arena_f64(kwargs))
            retained = _retained_bytes()
            assert retained == planner._WORKSPACE_STATS["bytes"] <= budget
        assert planner._WORKSPACE_STATS["evictions"] > evictions
        # The first calls' workspaces were evicted long ago: rerun them on
        # rebuilt ones.
        calls += calls[:8]
        warm += [self._arena_f64(kwargs) for kwargs in calls[-8:]]
        # Every warm call ran on a workspace another call had written or
        # on one rebuilt after eviction; each must match a cold cache.
        for kwargs, result in zip(calls, warm):
            clear_plan_cache()
            _assert_bitwise_equal(result, self._arena_f64(kwargs), "cold")
        clear_plan_cache()

    def test_gauges_match_the_cache(self):
        from repro.obs.metrics import MetricsRegistry

        clear_plan_cache()
        for num_sessions in (3, 7):
            kwargs = _batch_inputs(
                num_sessions, num_sessions, 2, 4, horizon=3, max_step=1,
                weighted=False, num_stalls=1, need_rebuffer=False,
            )
            for dtype in ("float64", "float32"):
                evaluate_candidates_batch(**kwargs, kernel_dtype=dtype)
        gauges = MetricsRegistry().snapshot()["gauges"]
        assert gauges["planner.arena.workspaces"] == len(
            planner._WORKSPACES
        ) == 4
        assert gauges["planner.arena.workspace_bytes"] == (
            _retained_bytes()
        ) > 0
        assert gauges["planner.arena.workspace_evictions"] == (
            planner._WORKSPACE_STATS["evictions"]
        )
        clear_plan_cache()


def _cache_entry_args(cache, key):
    candidates = cache[key][0]
    # Reconstruct the ladder from the key's tobytes() payload.
    return candidates, np.frombuffer(key[1], dtype=np.float64)


class TestBlockSessions:
    """Cache-blocked tiling: floors, caps and config sensitivity."""

    def test_floor_and_cap(self):
        for scenarios in (1, 5):
            block = kernel_block_sessions(5, 4, 2, scenarios)
            assert 12 <= block <= 64

    def test_fewer_scenarios_allow_bigger_blocks(self):
        assert kernel_block_sessions(5, 4, 2, 1) >= kernel_block_sessions(
            5, 4, 2, 5
        )

    def test_legacy_impl_keeps_floor(self):
        try:
            set_kernel_impl("legacy")
            assert kernel_block_sessions(5, 4, 2, 5, floor=12) == 12
        finally:
            set_kernel_impl(None)

    def test_env_pin_wins(self, monkeypatch):
        monkeypatch.setattr(planner, "_KERNEL_BLOCK_PIN", "7")
        assert kernel_block_sessions(5, 4, 2, 5) == 7
