"""Simulated CUDA runtime.

The subpackage reproduces the slice of the CUDA runtime the paper relies on:

* :class:`~repro.cuda.device.Device` — a GPU context with a caching
  device-memory allocator, a simulated timeline, and cost models built from
  a :class:`~repro.hw.spec.GPUSpec`;
* :class:`~repro.cuda.memory.DeviceArray` — device-resident ndarray handles;
  moving data on/off the device charges PCIe time to the timeline;
* :class:`~repro.cuda.kernel.Kernel` and
  :func:`~repro.cuda.kernel.launch` — kernel objects executed over a grid of
  thread blocks; the *numerics* run vectorized on the host while the *cost*
  is charged from the roofline model;
* :class:`~repro.cuda.stream.Stream` — an in-order lane with a simulated
  horizon, used by the serving scheduler and the pipeline's copy engines;
* :class:`~repro.cuda.profiler.Profiler` — nvprof-style per-category
  aggregation (communication vs computation, Table VII).

All numerics executed through this layer are real; only time is simulated.
"""

from repro.cuda.device import Device
from repro.cuda.memory import DeviceArray
from repro.cuda.kernel import Kernel, launch, LaunchConfig
from repro.cuda.launch import grid_1d
from repro.cuda.stream import Stream
from repro.cuda.profiler import Profiler, ProfileReport, merge_reports
from repro.cuda.trace import (
    export_chrome_trace,
    schedule_to_trace_events,
    timeline_to_trace_events,
)

__all__ = [
    "Device",
    "DeviceArray",
    "Kernel",
    "launch",
    "LaunchConfig",
    "grid_1d",
    "Stream",
    "Profiler",
    "ProfileReport",
    "merge_reports",
    "export_chrome_trace",
    "schedule_to_trace_events",
    "timeline_to_trace_events",
]
