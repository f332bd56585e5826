"""The benchmark's three island workloads.

Every workload advects a float64 MPDATA field under periodic boundaries
from ``random_state(shape, seed)``.  Load comes from one process with at
most two workers or threads, sized for a host with two vCPUs.  The
``smoke`` shapes keep the same engine configuration on grids
small enough for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

Shape = Tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    smoke_shape: Shape
    islands: int
    engine: Dict[str, object]
    #: Reference-checked prefix, in time steps (a multiple of sync_every).
    prefix_steps: int

    @property
    def sync_every(self) -> int:
        return int(self.engine.get("sync_every", 1))

    def grid(self, smoke: bool) -> Shape:
        return self.smoke_shape if smoke else self.shape


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk-procs",
            why=(
                "the paper's configuration: 2 recompute islands in 2 worker "
                "processes, kernel-bound, with the parent's serial ghost fill"
            ),
            shape=(256, 128, 64),
            smoke_shape=(32, 16, 8),
            islands=2,
            engine=dict(
                backend="procs", procs_inner="native", workers=2,
                halo="recompute", sync_every=1,
            ),
            prefix_steps=2,
        ),
        Workload(
            name="exchange-threads",
            why=(
                "8 thin exchange islands on 2 threads: 17 stage barriers, "
                "halo copies and 136 island-stage calls per step"
            ),
            shape=(192, 96, 32),
            smoke_shape=(48, 24, 8),
            islands=8,
            engine=dict(
                backend="native", threads=2, halo="exchange", sync_every=1,
            ),
            prefix_steps=2,
        ),
        Workload(
            name="superstep-procs",
            why=(
                "4 islands on 2 workers syncing every 4 steps: deep halos, "
                "RPC queueing, redundant work and the most kernels to build"
            ),
            shape=(128, 64, 32),
            smoke_shape=(48, 24, 16),
            islands=4,
            engine=dict(
                backend="procs", procs_inner="native", workers=2,
                halo="recompute", sync_every=4,
            ),
            prefix_steps=4,
        ),
    )
}
