"""Perf harness for the RL training subsystem.

Measures experience-collection throughput — episodes/sec and decisions/sec
through the rollout collector — on every backend side by side (serial,
lockstep, and a process pool with *persistent* workers, spawned once and
reused across collection rounds), keyed by backend name, and writes the
numbers to ``BENCH_training.json`` at the repo root so the
training-throughput trajectory is tracked from PR to PR (the companion of
``BENCH_engine.json`` for the simulation engine).  ``auto_backend`` records
which of them :meth:`BatchRunner.auto` resolves to, and
``process_speedup`` the pool's same-run ratio over serial collection (on
a single-core host a pool can only lose; the ratio is recorded as
measured and gated, like the auto backend's, only on multi-core hosts).

The ``lockstep_collection`` section tracks the default path: the lockstep
engine's batched RL driver (one stacked actor forward per decision round
across the whole round's episodes, per-spec exploration seeds).  Its
``speedup_vs_serial`` is a same-run ratio over byte-identical experience.

Run via ``make bench-training`` or
``PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -v``.
``REPRO_BENCH_SCALE=tiny`` shrinks the measured episode count (used by
the CI ``bench-smoke`` job, which asserts the report schema rather than
any speedup threshold).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.sensei_abr import make_sensei_pensieve
from repro.engine.report import environment_fingerprint, git_revision
from repro.engine.runner import BatchRunner
from repro.network.bank import TraceBank
from repro.qoe.ground_truth import GroundTruthOracle
from repro.training import CurriculumConfig, RolloutCollector, ScenarioCurriculum
from repro.video.library import VideoLibrary

#: Written at the repo root; tracked in version control as the perf record.
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"

#: Smoke scale (CI): schema and backend-equivalence only, tiny timings.
TINY = os.environ.get("REPRO_BENCH_SCALE", "quick") == "tiny"

#: Episodes measured per backend.
EPISODES = 8 if TINY else 24

#: Measurement attempts per backend (best-of, against host noise).
MEASUREMENT_ATTEMPTS = 2

#: Floor for the lockstep-collection speedup on real (non-tiny) runs: the
#: batched RL driver should beat per-episode serial collection clearly
#: (the recording host measures ~3x); the floor sits far below so host
#: noise cannot redden a healthy run.
MIN_LOCKSTEP_COLLECTION_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def training_setup():
    """A curriculum over two library videos and a small trace bank."""
    library = VideoLibrary(seed=7)
    videos = [library.encoded("soccer1"), library.encoded("fps1")]
    oracle = GroundTruthOracle()
    weights = {
        video.source.video_id: oracle.normalized_sensitivity(video.source)
        for video in videos
    }
    curriculum = ScenarioCurriculum(
        videos,
        TraceBank(num_traces=4, duration_s=600.0, seed=11).traces(),
        weights_by_video=weights,
        config=CurriculumConfig(trace_duration_s=600.0, seed=29),
    )
    return curriculum, make_sensei_pensieve(seed=47)


@pytest.mark.benchmark(group="training")
@pytest.mark.slow
def test_collection_throughput_serial_vs_parallel(training_setup):
    """Episodes/sec through the collector, per backend, -> BENCH_training.json."""
    curriculum, abr = training_setup
    specs = curriculum.training_specs(EPISODES, round_index=0)
    cores = os.cpu_count() or 1

    # Every backend side by side, keyed by name; ``auto_backend`` says
    # which of them ``BatchRunner.auto()`` resolves to on this host.
    runners = {
        "serial": BatchRunner(backend="serial"),
        "lockstep": BatchRunner(backend="lockstep"),
        # Persistent workers: training pays pool spawn once per run, not
        # once per collection round.
        "process": BatchRunner(
            backend="process", max_workers=cores, chunksize=1, persistent=True
        ),
    }
    rates = {}
    decisions = {}
    seconds = {}
    reference = None
    try:
        for name, runner in runners.items():
            collector = RolloutCollector(runner=runner, shard_size=4)
            # Warms the session precompute / plan caches and, for a
            # persistent pool, the worker processes themselves.
            collector.collect(abr, specs[:2])
            best = float("inf")
            rollouts = None
            for _ in range(MEASUREMENT_ATTEMPTS):
                t0 = time.perf_counter()
                rollouts = collector.collect(abr, specs)
                best = min(best, time.perf_counter() - t0)
            steps = sum(rollout.num_steps for rollout in rollouts)
            seconds[name] = best
            rates[name] = round(len(rollouts) / best, 2)
            decisions[name] = round(steps / best, 1)
            print(
                f"\n{name}: {len(rollouts)} episodes in {best:.2f}s "
                f"({rates[name]:.1f} episodes/s, "
                f"{decisions[name]:.0f} decisions/s)"
            )
            # Byte-identical experience is the precondition for any of
            # the ratios to mean anything: same actions on every backend.
            actions = [rollout.actions.tolist() for rollout in rollouts]
            if reference is None:
                reference = actions
            else:
                assert actions == reference, name
    finally:
        runners["process"].close()

    speedup = round(rates["process"] / rates["serial"], 2)
    auto_backend = BatchRunner.auto().backend
    # The lockstep collector: one in-process batched RL driver (one
    # stacked actor forward per decision round across the whole round's
    # episodes), as its own section with a same-run speedup over serial.
    lockstep_section = {
        "episodes": EPISODES,
        "episodes_per_sec": rates["lockstep"],
        "decisions_per_sec": decisions["lockstep"],
        "serial_seconds": round(seconds["serial"], 4),
        "lockstep_seconds": round(seconds["lockstep"], 4),
        "speedup_vs_serial": round(seconds["serial"] / seconds["lockstep"], 2),
        "experience_identical": True,
        "min_speedup": MIN_LOCKSTEP_COLLECTION_SPEEDUP,
    }
    print(
        f"\nlockstep collection: "
        f"{lockstep_section['speedup_vs_serial']:.2f}x vs serial; "
        f"process pool {speedup:.2f}x vs serial on {cores} core(s)"
    )

    payload = {
        "scale": "tiny" if TINY else "quick",
        "episodes": EPISODES,
        "episodes_per_sec": rates,
        "decisions_per_sec": decisions,
        "process_speedup": speedup,
        "auto_backend": auto_backend,
        "lockstep_collection": lockstep_section,
        "meta": environment_fingerprint(),
    }
    revision = git_revision()
    if revision is not None:
        payload["meta"]["git_revision"] = revision
    REPORT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {REPORT_PATH}")
    assert all(rate > 0 for rate in rates.values())
    if not TINY:
        assert (
            lockstep_section["speedup_vs_serial"]
            >= MIN_LOCKSTEP_COLLECTION_SPEEDUP
        )
    if cores > 1:
        # The regressions this harness exists to catch: on multi-core hosts
        # neither the pool nor the backend ``auto()`` picks may be
        # meaningfully slower than serial collection.  The floor sits below
        # the 1.0 goal so scheduler noise on a loaded host cannot turn a
        # healthy backend into a red suite — the same floor-vs-target split
        # the engine harness uses.
        assert speedup >= 0.9
        assert rates[auto_backend] / rates["serial"] >= 0.9
