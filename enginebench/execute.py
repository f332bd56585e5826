"""One benchmark run of one workload: setup, timed window(s), checks.

Imported by ``run.py`` only after it has pointed the engine at the
benchmark's kernel cache and put ``src/`` on the path.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import time
import weakref
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

import host
from layers import report_lines, span_metrics
from measure import (
    MASS_DRIFT_BOUND,
    REFERENCE_ATOL,
    Trajectory,
    check_hashes,
    geometry,
    kernel_files,
    read_memory,
    timed_window,
)
from repro.mpdata.fields import random_state
from repro.mpdata.reference import reference_run
from repro.runtime import EngineConfig, MpdataIslandSolver
from repro.stencil.plancache import clear_plan_cache
from spans import Tracer, instrument
from workloads import WORKLOADS

#: Timed setups per run; setup_s is their median.
SETUP_SAMPLES = 11
#: Serial baseline steps (traced runs only).
SERIAL_SAMPLES = 5

Metrics = Dict[str, Tuple[float, str]]


class Run:
    def __init__(self, args: argparse.Namespace, workdir: str) -> None:
        self.args = args
        self.workdir = workdir
        self.kernel_dir = os.environ["REPRO_NATIVE_CACHE"]
        self.workload = WORKLOADS[args.workload]
        self.shape = self.workload.grid(args.smoke)
        self.cells = int(np.prod(self.shape))
        self.config = EngineConfig(
            dtype="float64",
            boundary="periodic",
            fault_specs=tuple(args.fault),
            max_retries=args.retries,
            **self.workload.engine,
        )
        self.state = random_state(self.shape, args.seed)
        self.problems: List[str] = []
        #: Trajectories this run opened and still holds (weakly, so a
        #: closed one is freed as before); :meth:`close` closes them.
        self.opened: "weakref.WeakSet[Trajectory]" = weakref.WeakSet()

    @staticmethod
    def say(text: str) -> None:
        print(text, flush=True)

    def trajectory(self, config: EngineConfig = None, islands: int = None) -> Trajectory:
        solver = MpdataIslandSolver(
            self.shape,
            self.workload.islands if islands is None else islands,
            config=self.config if config is None else config,
        )
        traj = Trajectory(solver, self.state)
        self.opened.add(traj)
        return traj

    def close(self) -> None:
        """Close every solver still open, on every path out of a run."""
        for traj in list(self.opened):
            traj.close()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def warm(self) -> int:
        """Untimed construction that fills the on-disk kernel cache."""
        before = kernel_files(self.kernel_dir)
        traj = self.trajectory()
        try:
            traj.advance()
        finally:
            traj.close()
        return len(kernel_files(self.kernel_dir) - before)

    def setups(self) -> Tuple[Trajectory, List[Tuple[float, float]], List[int]]:
        """``SETUP_SAMPLES`` timed setups from one cache state.

        Before each, the in-process plan cache is emptied; the on-disk
        kernels are warm.  The last solver stays open and is stepped on.
        """
        samples: List[Tuple[float, float]] = []
        misses: List[int] = []
        for sample in range(SETUP_SAMPLES):
            clear_plan_cache(reset_counters=True)
            gc.collect()  # the previous solver's garbage is not this setup's
            begin = time.perf_counter()
            traj = self.trajectory()
            built = time.perf_counter()
            traj.advance()
            samples.append((built - begin, time.perf_counter() - built))
            misses.append(traj.runner.plan_cache_misses)
            if sample < SETUP_SAMPLES - 1:
                traj.close()
        return traj, samples, misses

    def to_prefix(self, traj: Trajectory) -> np.ndarray:
        """Advance to the reference-checked prefix; return a copy of it."""
        while traj.index < self.workload.prefix_steps:
            traj.advance()
        return traj.snapshot()

    # ------------------------------------------------------------------
    # Traced window and serial baseline
    # ------------------------------------------------------------------
    def traced_window(self, seconds: float):
        """A ``collect_timings`` solver stepped under the span tracer."""
        traj = self.trajectory(replace(self.config, collect_timings=True))
        try:
            self.to_prefix(traj)
            tracer = Tracer()
            instrument(traj.runner, tracer)
            window = timed_window(traj, seconds)
            counts = {
                "runner.syncs_per_step": (traj.runner.syncs_per_step, "count"),
                "resilience.retries": (float(traj.runner.fault_stats.retries), "count"),
            }
            geo = geometry(traj.runner)
        finally:
            traj.close()
        path = os.path.join(
            self.workdir, f"trace-{self.workload.name}-seed{self.args.seed}.json"
        )
        tracer.write_chrome(path)
        self.say(f"trace: {len(tracer.spans)} spans written to {path}")
        return traj, tracer, window, counts, geo

    def serial_step_ms(self) -> float:
        """Median step of the same grid on native, 1 island, 1 thread."""
        traj = self.trajectory(EngineConfig(backend="native", threads=1), islands=1)
        try:
            traj.advance()
            samples = []
            for _ in range(SERIAL_SAMPLES):
                begin = time.perf_counter()
                traj.advance()
                samples.append((time.perf_counter() - begin) * 1e3)
        finally:
            traj.close()
        return statistics.median(samples)

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------
    def check(self, snapshot, windows, final_field, final_index) -> bool:
        """Reference prefix, mass drift per window, cross-run hashes."""
        steps = self.workload.prefix_steps
        error = float(np.max(np.abs(snapshot - reference_run(self.state, steps))))
        self.say(
            f"check: {steps}-step prefix vs reference_run max|err|={error:.3g} "
            f"(bound {REFERENCE_ATOL:g})"
        )
        if not error <= REFERENCE_ATOL:
            self.problems.append(f"prefix differs from the reference by {error:.3g}")
        for number, window in enumerate(windows):
            if window.broken:
                self.problems.append(f"window {number} raised {window.broken}")
                continue
            drift = window.mass_drift
            self.say(
                f"check: window {number} mass drift {drift:.3g} over "
                f"{window.steps} steps (bound {MASS_DRIFT_BOUND:g})"
            )
            if not drift <= MASS_DRIFT_BOUND:
                self.problems.append(f"window {number} mass drift {drift:.3g}")
        key = "/".join((
            self.workload.name,
            "smoke" if self.args.smoke else "full",
            "+".join(self.args.fault) or "clean",
            f"seed={self.args.seed}",
        ))
        mismatched = check_hashes(
            os.path.join(self.workdir, "hashes.json"), key,
            {steps: snapshot, final_index: final_field},
        )
        self.say(
            f"check: field hashes after {steps} and {final_index} steps "
            + ("match earlier runs of this seed" if not mismatched
               else f"DIFFER after {', '.join(mismatched)} steps")
        )
        if mismatched:
            self.problems.append("field hash differs from an earlier run")
        return not self.problems

    # ------------------------------------------------------------------
    def execute(self) -> Tuple[bool, int, int, Metrics]:
        args = self.args
        steal_start = host.cpu_times()
        probe = host.probe_host(scale=0.05 if args.smoke else 1.0)
        for line in probe.lines():
            self.say(line)
        cold = self.warm()
        self.say(f"setup: untimed warm-up construction built {cold} kernel(s)")
        before = kernel_files(self.kernel_dir)

        seconds = args.seconds / 2 if args.trace else args.seconds
        traj, setup, misses = self.setups()
        snapshot = self.to_prefix(traj)
        window = timed_window(traj, seconds)
        memory = read_memory()
        final_field, final_index = traj.snapshot(), traj.index
        traj.close()
        windows = [window]
        attempted, failed = traj.attempted, traj.failed
        traced = None
        if args.trace:
            traced = self.traced_window(seconds)
            windows.append(traced[2])
            attempted += traced[0].attempted
            failed += traced[0].failed
        builds = len(kernel_files(self.kernel_dir) - before)
        correct = self.check(snapshot, windows, final_field, final_index)
        if not correct:
            failed = attempted  # every step of an incorrect run failed
        steal = host.steal_fraction(steal_start, host.cpu_times())

        construct = statistics.median(c for c, _ in setup)
        first = statistics.median(f for _, f in setup)
        self.say(
            f"setup: {len(setup)} timed setups, medians construct {construct:.4f} s "
            f"+ first step {first:.4f} s; native.builds={builds}"
            + (" FLAGGED: the timed region compiled kernels" if builds else "")
        )
        self.say("setup: samples " + " ".join(f"{c + f:.4f}" for c, f in setup) + " s")
        self.say(
            f"window: {window.steps} steps in {window.wall_s:.3f} s, "
            f"{len(window.samples_ms)} timed samples, {window.beyond(90)} beyond "
            "the p90"
        )
        self.say(
            f"memory: parent peak {memory.parent_mib:.1f} MiB + workers VmHWM "
            f"{memory.workers_mib:.1f} MiB (shared memory {memory.shm_mib:.1f} MiB "
            "is counted in both)"
        )
        self.say(f"host: steal_frac={steal:.4f} across the run")
        self.say(
            f"failed_step_ratio: {failed / attempted:.6g} "
            f"({failed} of {attempted} steps failed)"
        )
        for problem in self.problems:
            self.say(f"FAILED: {problem}")

        if not args.trace:
            metrics: Metrics = {
                "mcells_per_s": (window.mcells_per_s(self.cells), "Mcell/s"),
                "step_ms_p50": (window.percentile(50), "ms"),
                "step_ms_p90": (window.percentile(90), "ms"),
                "setup_s": (statistics.median(c + f for c, f in setup), "s"),
                "peak_rss_mib": (memory.peak_mib, "MiB"),
                "cpu_s_per_mcell": (
                    window.cpu_s / max(1e-9, self.cells * window.steps / 1e6),
                    "s/Mcell",
                ),
                "step_success_ratio": (1.0 - failed / attempted, "ratio"),
            }
        else:
            metrics = self.layer_metrics(
                probe, window, traced, construct, first, misses, builds,
                memory, steal, failed / attempted,
            )
        return correct, attempted, failed, metrics

    def layer_metrics(self, probe, window, traced, construct, first, misses,
                      builds, memory, steal, failed_ratio) -> Metrics:
        _, tracer, twindow, counts, geo = traced
        steps = max(1, twindow.steps)
        # A window that broke on its first call has no rate: NaN, not a
        # ZeroDivisionError (the result line reports non-finite as 0).
        step_s = window.percentile(50) / 1e3 or float("nan")
        serial = self.serial_step_ms()
        untraced = window.mcells_per_s(self.cells) or float("nan")
        metrics = span_metrics(tracer, steps)
        metrics.update(counts)
        metrics.update({
            "failed_step_ratio": (failed_ratio, "ratio"),
            "kernel.flops_per_step": (geo.flops, "flop"),
            "kernel.bytes_per_step": (geo.bytes_computed, "B-computed"),
            "kernel.gflops": (geo.flops / step_s / 1e9, "Gflop/s"),
            "kernel.roofline_frac": (
                geo.bytes_computed / step_s / 1e9 / probe.triad_gbs_all, "ratio"
            ),
            "halo.exchanged_bytes_per_step": (twindow.exchanged_bytes / steps, "B"),
            "halo.stage_syncs_per_step": (twindow.stage_syncs / steps, "count"),
            "halo.redundant_points_per_step": (geo.redundant_points, "count"),
            "halo.useful_fraction": (geo.useful_fraction, "ratio"),
            "setup.construct_s": (construct, "s"),
            "setup.first_step_s": (first, "s"),
            "plancache.misses": (float(statistics.median(misses)), "count"),
            "native.builds": (float(builds), "count"),
            "mem.parent_rss_mib": (memory.parent_mib, "MiB"),
            "mem.workers_rss_mib": (memory.workers_mib, "MiB"),
            "mem.shm_mib": (memory.shm_mib, "MiB"),
            "islands.serial_step_ms": (serial, "ms"),
            "islands.speedup_vs_serial": (serial / (step_s * 1e3), "ratio"),
            "host.usable_cpus": (probe.usable_cpus, "count"),
            "host.spin_efficiency": (probe.spin_efficiency, "ratio"),
            "host.triad_gbs_1": (probe.triad_gbs_1, "GB/s"),
            "host.triad_gbs_all": (probe.triad_gbs_all, "GB/s"),
            "host.steal_frac": (steal, "ratio"),
            "trace.overhead_pct": (
                (untraced - twindow.mcells_per_s(self.cells)) / untraced * 100.0, "%"
            ),
        })
        for line in report_lines(tracer, steps, metrics):
            self.say(line)
        return metrics
