"""The fault injector: hooks the execution layer consults.

Activation is a context manager::

    with inject(FaultPlan.random(seed=7)) as injector:
        results = runner.run_orders(orders)
    assert injector.fired  # what actually struck

Hook points (all no-ops when no injector is active):

* the lockstep core calls :func:`take_shard_fault` as it dispatches each
  shard — a matching shard fault is *consumed* and attached to that
  dispatch only, so a recovered shard runs clean (which is exactly the
  transient-fault model recovery is built for) — and carries it out with
  :func:`execute_shard_fault`;
* :func:`repro.faults.integrity.atomic_write_bytes` calls
  :func:`corrupt_bytes` — a matching ``corrupt_artifact`` fault truncates
  or bit-flips the payload before it hits disk.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.faults.plan import FaultPlan, SHARD_FAULT_KINDS


@dataclass(frozen=True)
class ShardFault:
    """The directive a dispatched shard carries to its executor."""

    kind: str


def execute_shard_fault(fault: ShardFault) -> None:
    """Carry out a shard fault at its execution site (``raise_in_shard``
    raises, standing in for a workload bug the shard hits)."""
    raise RuntimeError(f"injected fault: {fault.kind}")


class FaultInjector:
    """Consumes a :class:`FaultPlan`'s faults as the run reaches them."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._remaining: List[int] = [spec.times for spec in plan.faults]
        #: Human-readable record of every fault that actually struck.
        self.fired: List[str] = []

    # --------------------------------------------------------------- queries

    def exhausted(self) -> bool:
        """Whether every planned fault has fired its full ``times``."""
        return not any(self._remaining)

    def _take(self, spec_index: int, note: str) -> None:
        self._remaining[spec_index] -= 1
        self.fired.append(note)

    # ----------------------------------------------------------------- hooks

    def take_shard_fault(self, shard_index: int) -> Optional[ShardFault]:
        """Consume a shard fault aimed at ``shard_index``, if one is live."""
        for i, spec in enumerate(self.plan.faults):
            if (
                spec.kind in SHARD_FAULT_KINDS
                and self._remaining[i] > 0
                and (spec.shard is None or spec.shard == shard_index)
            ):
                self._take(i, f"{spec.kind}@shard{shard_index}")
                return ShardFault(kind=spec.kind)
        return None

    def corrupt_bytes(self, path: Union[str, Path], data: bytes) -> bytes:
        """Apply a matching ``corrupt_artifact`` fault to a pending write."""
        name = Path(path).name
        for i, spec in enumerate(self.plan.faults):
            if (
                spec.kind == "corrupt_artifact"
                and self._remaining[i] > 0
                and fnmatch(name, spec.path_glob)
            ):
                self._take(i, f"corrupt_artifact[{spec.mode}]@{name}")
                if spec.mode == "truncate":
                    return data[: len(data) // 2]
                flipped = bytearray(data)
                if flipped:
                    # Flip one low bit mid-payload: deterministic, and for
                    # text formats usually still parseable — the silent
                    # corruption only a checksum catches.
                    flipped[len(flipped) // 2] ^= 0x01
                return bytes(flipped)
        return data


_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The active injector, or ``None``."""
    return _ACTIVE


@contextmanager
def inject(
    plan: Union[FaultPlan, FaultInjector]
) -> Iterator[FaultInjector]:
    """Activate a fault plan for the duration of the ``with`` block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already active in this process")
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


__all__ = [
    "FaultInjector",
    "ShardFault",
    "active_injector",
    "execute_shard_fault",
    "inject",
]
