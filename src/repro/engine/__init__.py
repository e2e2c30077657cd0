"""repro.engine — compiled execution spine + unified discrete-event
runtime.

Two halves, one goal (run the reproduction as fast as the hardware
allows):

* :mod:`repro.engine.compiler` compiles a Kiwi
  :class:`~repro.kiwi.compiler.CompiledDesign` into exec-generated
  Python closures — one step function per FSM state, expression DAGs
  flattened to straight-line locals, memories as preallocated lists —
  replacing per-cycle netlist interpretation on the hot path.
  :mod:`repro.engine.batch` raises that to lockstep structure-of-arrays
  execution: N requests advance through fused superblocks per dispatch
  (``compile_kernel(fn, batch=N)``), with per-lane early exits and
  compile-time constant folding.  :mod:`repro.engine.pipelined` overlaps
  requests *within* one kernel the way the -O3 hardware schedule does
  — a new request issues every II cycles, hazard stalls only on real
  memory dependences, strict in-order retire.
  :mod:`repro.engine.verify` is the one differential harness: one
  loop co-runs a job stream through a reference leg and candidate
  legs (interpreted netlist, scalar engine, batched engine, pipelined
  executor) and compares results, cycles, reply bytes and memory
  images.  The interpreted :class:`~repro.rtl.simulator.Simulator`
  runs only there, as the oracle.
* :mod:`repro.engine.sched` is the one discrete-event scheduler every
  layer now shares (the netsim event loop subclasses it), with
  processes and bounded back-pressure queues;
  :mod:`repro.engine.openloop` uses them to drive deployments with
  open-loop arrivals so latency distributions are queueing-derived.
"""

from repro.engine.batch import BatchedKernel, compile_design_batched
from repro.engine.compiler import (
    CompiledKernel, compile_design, compile_kernel,
)
from repro.engine.openloop import (
    ArrivalSpec, OpenLoopReport, run_open_loop,
)
from repro.engine.pipelined import PipelinedKernel, compile_pipelined
from repro.engine.sched import Delay, Process, Queue, Scheduler
from repro.engine.verify import Mismatch, Report, differential

__all__ = [
    "ArrivalSpec", "BatchedKernel", "CompiledKernel", "Delay",
    "Mismatch", "OpenLoopReport", "PipelinedKernel", "Process", "Queue",
    "Report", "Scheduler", "compile_design", "compile_design_batched",
    "compile_kernel", "compile_pipelined", "differential",
    "run_open_loop",
]
