"""Discrete-event simulator that times execution plans.

The simulator plays the role of the GPU cluster: it executes the task graph a
strategy emitted, respecting dependencies and exclusive resources (compute
streams, NIC directions, NVSwitch ports), and reports the makespan plus
per-rank / per-kind time accounting.  Overlap between computation and
communication is not assumed — it emerges from tasks on different resources
running concurrently, exactly as it does with CUDA streams and NCCL channels
on real hardware.  Stragglers and degraded links reach it as one speed map
(resource name to a constant factor) per run.
"""

from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.engine import Simulator, SimulationResult, simulate
from repro.sim.trace import Trace, TraceSpan, summarize_trace
from repro.sim.visualize import render_timeline, timeline_summary_lines

__all__ = [
    "CompiledPlan",
    "compile_plan",
    "Simulator",
    "SimulationResult",
    "simulate",
    "Trace",
    "TraceSpan",
    "summarize_trace",
    "render_timeline",
    "timeline_summary_lines",
]
