"""Per-layer metrics of a traced window and the layer -> end-to-end map.

Each per-layer metric names the end-to-end metric it should move and the
workload where it does most of the work; the traced run prints the map
next to the measured values and the per-span self times.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mpdata.stages import mpdata_program
from spans import Tracer, union_seconds

#: Span name -> (engine module it times, what its self time holds).
SPAN_LAYERS: Dict[str, Tuple[str, str]] = {
    "runner.step": (
        "runtime.island_exec",
        "fan-out, halo copies, assembly (step_ms_p50/p90 @ exchange-threads)",
    ),
    "runner.ghost_fill": (
        "runtime.island_exec",
        "parent's serial ghost fill (mcells_per_s @ bulk-procs)",
    ),
    "resilience.island": (
        "runtime.resilience",
        "retry wrapper, or RPC wait under procs (step_ms_p90 @ superstep-procs)",
    ),
    "backend.execute": (
        "runtime.backends",
        "island kernels in-process, RPC round trip under procs "
        "(mcells_per_s @ exchange-threads)",
    ),
}

STAGES = tuple(stage.name for stage in mpdata_program().stages)

_KERNEL = "mcells_per_s @ bulk-procs"
#: Per-layer metric -> (layer, end-to-end metric @ workload it should move).
METRIC_MAP: Dict[str, Tuple[str, str]] = {
    "runner.ghost_fill_ms": ("runtime.island_exec", "step_ms_p50, mcells_per_s @ bulk-procs"),
    "runner.step_self_ms": ("runtime.island_exec", "step_ms_p50, step_ms_p90 @ exchange-threads"),
    "runner.barrier_skew_ms": ("runtime.island_exec", "step_ms_p50, step_ms_p90 @ exchange-threads"),
    "runner.syncs_per_step": ("runtime.island_exec", "step_ms_p50 @ exchange-threads"),
    "resilience.island_ms": ("runtime.resilience", "failed_step_ratio, step_ms_p90 @ all"),
    "resilience.retries": ("runtime.resilience", "failed_step_ratio, step_ms_p90 @ all"),
    "failed_step_ratio": ("runtime.resilience", "step_success_ratio @ all"),
    "backend.execute_ms": ("runtime.backends", "mcells_per_s @ exchange-threads"),
    "backend.calls_per_step": ("runtime.backends", "mcells_per_s @ exchange-threads"),
    "procs.worker_compute_ms": ("runtime.procs", "mcells_per_s, step_ms_p90 @ superstep-procs"),
    "procs.rpc_ms": ("runtime.procs", "mcells_per_s, step_ms_p90 @ superstep-procs"),
    "kernel.compute_ms": ("stencil.native", _KERNEL),
    **{f"kernel.stage_ms.{stage}": ("stencil.native", _KERNEL) for stage in STAGES},
    "kernel.flops_per_step": ("stencil.flops", _KERNEL),
    "kernel.bytes_per_step": ("machine.costmodel", _KERNEL),
    "kernel.gflops": ("stencil.native", _KERNEL),
    "kernel.roofline_frac": ("stencil.native", _KERNEL),
    "halo.exchanged_bytes_per_step": ("core.halo", "step_ms_p50 @ exchange-threads"),
    "halo.stage_syncs_per_step": ("core.halo", "step_ms_p50 @ exchange-threads"),
    "halo.redundant_points_per_step": ("core.halo", "cpu_s_per_mcell @ superstep-procs"),
    "halo.useful_fraction": ("core.halo", "cpu_s_per_mcell @ superstep-procs"),
    "setup.construct_s": ("runtime setup", "setup_s @ superstep-procs"),
    "setup.first_step_s": ("runtime setup", "setup_s @ superstep-procs"),
    "plancache.misses": ("stencil.plancache", "setup_s @ superstep-procs"),
    "native.builds": ("stencil.native", "setup_s @ superstep-procs"),
    "mem.parent_rss_mib": ("memory", "peak_rss_mib @ superstep-procs, bulk-procs"),
    "mem.workers_rss_mib": ("memory", "peak_rss_mib @ superstep-procs, bulk-procs"),
    "mem.shm_mib": ("memory", "peak_rss_mib @ superstep-procs, bulk-procs"),
    "islands.serial_step_ms": ("core.islands", "mcells_per_s @ bulk-procs"),
    "islands.speedup_vs_serial": ("core.islands", "mcells_per_s @ bulk-procs"),
    "host.usable_cpus": ("host", "none: says whether a number is the host's"),
    "host.spin_efficiency": ("host", "none: says whether a number is the host's"),
    "host.triad_gbs_1": ("host", "none: says whether a number is the host's"),
    "host.triad_gbs_all": ("host", "none: says whether a number is the host's"),
    "host.steal_frac": ("host", "none: says whether a number is the host's"),
    "trace.overhead_pct": ("benchmark", "none: traced vs untraced mcells_per_s"),
}


def span_metrics(tracer: Tracer, steps: int) -> Dict[str, Tuple[float, str]]:
    """Runner, resilience, backend and kernel metrics from the spans."""
    ms = lambda seconds: seconds * 1e3 / steps  # noqa: E731  per time step
    kids = tracer.children()
    step_self = 0.0
    for span in tracer.by_name("runner.step"):
        covered = union_seconds(
            [(c.start, c.end) for c in kids.get(span.span_id, ())],
            span.start, span.end,
        )
        step_self += span.seconds - covered
    islands = tracer.by_name("resilience.island")
    fanout_ends: Dict[Tuple[int, object], List[float]] = {}
    stage_s = {stage: 0.0 for stage in STAGES}
    for span in islands:
        fanout_ends.setdefault((span.step, span.detail["fanout"]), []).append(span.end)
        for name, seconds in span.detail["stages"].items():
            stage_s[name] = stage_s.get(name, 0.0) + seconds
    compute = sum(stage_s.values())
    island_s = sum(span.seconds for span in islands)
    execute = tracer.by_name("backend.execute")
    metrics = {
        "runner.ghost_fill_ms": (ms(sum(s.seconds for s in tracer.by_name("runner.ghost_fill"))), "ms"),
        "runner.step_self_ms": (ms(step_self), "ms"),
        "runner.barrier_skew_ms": (
            ms(sum(max(ends) - min(ends) for ends in fanout_ends.values())), "ms"
        ),
        "resilience.island_ms": (ms(island_s), "ms"),
        "backend.execute_ms": (ms(sum(s.seconds for s in execute)), "ms"),
        "backend.calls_per_step": (len(execute) / steps, "count"),
        "procs.worker_compute_ms": (ms(compute), "ms"),
        "procs.rpc_ms": (ms(island_s - compute), "ms"),
        "kernel.compute_ms": (ms(compute), "ms"),
    }
    for stage in STAGES:
        metrics[f"kernel.stage_ms.{stage}"] = (ms(stage_s[stage]), "ms")
    return metrics


def report_lines(
    tracer: Tracer, steps: int, metrics: Dict[str, Tuple[float, str]]
) -> List[str]:
    """The self-time table and every per-layer value beside its map."""
    selfs = tracer.self_seconds()
    lines = ["layer self time per time step (traced window):"]
    for name, (module, holds) in SPAN_LAYERS.items():
        lines.append(
            f"  {name:<19} {module:<20} {selfs.get(name, 0.0) * 1e3 / steps:10.3f} ms  {holds}"
        )
    lines.append("per-layer metrics -> end-to-end metric @ workload it should move:")
    for name, (layer, moves) in METRIC_MAP.items():
        value, unit = metrics[name]
        lines.append(f"  {name:<32} {value:14.6g} {unit:<10} [{layer}] -> {moves}")
    return lines
