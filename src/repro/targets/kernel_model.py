"""Compiled-kernel cycle model for the FPGA target.

The behavioural services count one cycle per ``pause()`` segment —
faithful to the unoptimized schedule but blind to the optimizer.  When
a target is given an explicit ``opt_level``, services that have a flat
Emu-Python kernel swap in this model instead: the kernel is compiled at
that level and every request's core-cycle count is *measured* by
running the frame through the compiled machine with warm state (so
stateful kernels — e.g. Memcached's key-value memories — keep their
state between requests, exactly like the hardware).

The measurement runs on the compiled execution spine
(:mod:`repro.engine.compiler`, or its lockstep batched twin with
``batch=N``): the cycle counts equal the interpreted netlist's by the
engine's differential proof (:mod:`repro.engine.verify`), which is the
only place the interpreter still runs.
"""

from repro.errors import TargetError
from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET, compile_function


class KernelCycleModel:
    """Measured core cycles per request, from a compiled kernel.

    *scalars* are poked on every invocation (latched parameters such as
    the service IP); the *frame_param* memory is loaded with the frame
    bytes (zero-padded / truncated to the memory depth).  All other
    kernel memories stay warm across requests.
    """

    def __init__(self, kernel, opt_level, scalars=None,
                 frame_param="frame", max_cycles=100000, batch=None,
                 level_budget=None):
        self.level_budget = (DEFAULT_LEVEL_BUDGET if level_budget is None
                             else int(level_budget))
        self.design = compile_function(kernel, opt_level=opt_level,
                                       level_budget=self.level_budget)
        memories = dict(self.design.spec.memory_params)
        if frame_param not in memories:
            raise TargetError(
                "kernel %r has no %r memory parameter"
                % (self.design.name, frame_param))
        self.frame_param = frame_param
        self.depth = memories[frame_param].depth
        self.scalars = dict(scalars or {})
        self.max_cycles = max_cycles
        self.batch = None if batch is None else int(batch)
        from repro.engine.compiler import compile_design
        self._runner = compile_design(self.design, batch=batch)
        self.requests = 0
        self.total_cycles = 0

    @property
    def opt_level(self):
        return self.design.opt_level

    @property
    def initiation_interval(self):
        """Steady-state issue interval (cycles) from the ``-O3``
        pipelining schedule, or None when the machine does not pipeline
        (below -O3, analysis refused, or the frame buffer is not a
        per-request stream memory so requests cannot overlap)."""
        schedule = getattr(self.design.fsm, "pipeline_schedule", None)
        if schedule is None or not schedule.feasible:
            return None
        if self.frame_param not in schedule.stream_memories:
            return None
        return schedule.initiation_interval

    def poke_memory(self, name, addr, value):
        """Backdoor-program one warm memory word (services use this to
        install rule tables etc.)."""
        self._runner.poke_memory(name, addr, value)

    # -- profiling (per-FSM-state cycle attribution) -------------------------

    def enable_profiling(self):
        """Switch the engine runner to its per-state-counting twin
        (:meth:`repro.engine.compiler.CompiledKernel.enable_profiling`)."""
        self._runner.enable_profiling()
        return self

    def disable_profiling(self):
        self._runner.disable_profiling()

    def profile(self):
        """The accumulated :class:`~repro.obs.profiler.KernelProfile`
        (raises unless :meth:`enable_profiling` ran first)."""
        from repro.obs.profiler import KernelProfile
        return KernelProfile.from_kernel(self._runner)

    def cycles(self, frame):
        """Measured latency (cycles) of one frame through the kernel."""
        _, latency, _ = self._runner.run(
            max_cycles=self.max_cycles,
            memories={self.frame_param: self._frame_image(frame)},
            **self.scalars)
        self.requests += 1
        self.total_cycles += latency
        return latency

    def _frame_image(self, frame):
        image = list(frame.data)[:self.depth]
        image += [0] * (self.depth - len(image))
        return image

    def cycles_batch(self, frames):
        """Measured latencies (cycles) of *frames*, in order.

        On a batched runner (``batch=N``) the frames go through the
        lockstep SoA engine ``batch`` at a time — the per-frame cycle
        counts and the warm-memory end state are identical to calling
        :meth:`cycles` frame by frame (the batch differential harness
        in :mod:`repro.engine.verify` proves it); only the wall clock
        differs.  Without a batched runner this *is* that loop.
        """
        if self.batch is None:
            return [self.cycles(frame) for frame in frames]
        latencies = []
        frames = list(frames)
        for start in range(0, len(frames), self.batch):
            chunk = frames[start:start + self.batch]
            jobs = [(self.scalars,
                     {self.frame_param: self._frame_image(frame)})
                    for frame in chunk]
            for _, latency in self._runner.run_batch(
                    jobs, max_cycles=self.max_cycles):
                latencies.append(latency)
        self.requests += len(latencies)
        self.total_cycles += sum(latencies)
        return latencies

    def average_cycles(self):
        return self.total_cycles / self.requests if self.requests else 0.0
