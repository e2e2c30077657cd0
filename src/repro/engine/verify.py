"""One differential harness for every executor.

Emu's premise is one service program with identical behaviour on every
target; this module is the proof by co-simulation.
:func:`differential` runs one job stream through a *reference* leg and
any number of *candidate* legs and compares, between every pair of
legs:

* per-job results, and per-job reply bytes (the images of the
  memories named in ``replies``, the per-request stream buffers);
* per-job cycle counts whenever both legs run the same machine
  sequentially (same opt level) — cross-level pairs and the pipelined
  executor, whose latency includes overlap, are exempt;
* every memory image after every chunk.

A leg is a small adapter around one executor: :class:`InterpretedLeg`
(the netlist :class:`~repro.rtl.simulator.Simulator`, the oracle),
:class:`EngineLeg` (the scalar
:class:`~repro.engine.compiler.CompiledKernel`), :class:`BatchedLeg`
(``BatchedKernel.run_batch``) and :class:`PipelinedLeg`
(``PipelinedKernel.run_stream``).  Legs stay warm between chunks; a
chunk may reset them first.  After the stream each candidate records
its executor's facts on the report (lockstep/fallback batches,
initiation interval, peak in flight) and flags a ``lockstep`` or
``overlap`` mismatch when its fast path never engaged.

The job stream decides the shape of the proof:

* :func:`cold_chunks` — one job per chunk, every leg reset first (the
  optimizer proof ``-On`` vs ``-O0``, and the engine proof);
* :func:`batch_chunks` — warm batch-width chunks with a ragged final
  chunk; odd chunks load only some memories per job, which forces the
  batched engine's sequential path and carries warm memories over;
* :func:`split_chunks` — a warm seed, then per-request stream-memory
  jobs split into two chunks at an offset that is not a multiple of
  the pipeline depth, so the pipeline drains mid-stream and restarts.

A reference timeout skips the chunk on every leg and resets them all;
a candidate timeout is a ``timeout`` mismatch.
"""

import random

from repro.errors import CompileError, EngineError

#: Cycle budget per job (per chunk for the pipelined executor), and
#: what a leg raises when a job runs past it.
MAX_CYCLES = 200000
_TIMEOUTS = (CompileError, EngineError)

# Byte values that protocol parsers compare against (EtherType 0x08/
# 0x00, IP protocols 6/17, ports 53 and 11211 = 0x2B 0x67, the binary
# memcached magic 0x80, bitmask edges).  Drawing words from this
# dictionary makes shallow header checks pass far more often than
# uniform noise would.  Deep multi-byte request paths still need
# crafted inputs (an ``input_factory``).
_DICTIONARY = (0x00, 0x01, 0x06, 0x08, 0x11, 0x35, 0x2B, 0x67, 0x80,
               0xFF)


def _random_word(rng, width):
    if rng.random() < 0.5:
        return rng.getrandbits(width)
    value = 0
    for _ in range((width + 7) // 8):
        value = (value << 8) | rng.choice(_DICTIONARY)
    return value & ((1 << width) - 1)


def random_inputs(spec, rng):
    """Random scalars and memory images for one kernel invocation
    (a mix of uniform noise and dictionary-byte patterns)."""
    scalars = {name: _random_word(rng, param.width)
               for name, param in spec.scalar_params}
    memories = {name: [_random_word(rng, mem.width)
                       for _ in range(mem.depth)]
                for name, mem in spec.memory_params}
    return scalars, memories


def random_jobs(spec, seed, count, input_factory=None, deep_inputs=()):
    """*count* ``(scalars, memories)`` jobs: seeded random inputs, then
    the crafted *deep_inputs*.  *input_factory* (rng → job) replaces
    :func:`random_inputs` for kernels whose deep paths noise rarely
    reaches."""
    rng = random.Random("%s/%s" % (seed, spec.name))
    make = input_factory or (lambda r: random_inputs(spec, r))
    deep = list(deep_inputs)
    return [make(rng) for _ in range(count - len(deep))] + deep


# -- job streams: lists of (jobs, reset) chunks; reset is None (stay
#    warm) or the memory images to load after a power-on reset --------

def cold_chunks(jobs):
    """Every job alone, on freshly reset legs."""
    return [([job], {}) for job in jobs]


def batch_chunks(jobs, batch, seed):
    """Warm chunks of *batch* jobs.  A few leading jobs are dropped so
    the final chunk is narrower than *batch*; odd chunks keep each
    memory image with probability 0.6, leaving the rest warm."""
    rng = random.Random("%s/chunks" % seed)
    if batch > 1 and len(jobs) > batch + 1:
        jobs = jobs[rng.randrange(1, batch):]
    chunks = []
    for start in range(0, len(jobs), batch):
        chunk = jobs[start:start + batch]
        if start // batch % 2:
            chunk = [(scalars, {name: image
                                for name, image in memories.items()
                                if len(memories) < 2
                                or rng.random() < 0.6})
                     for scalars, memories in chunk]
        chunks.append((chunk, None))
    return chunks


def split_chunks(jobs, depth, streams):
    """The first job's memories seed every leg; the other jobs carry
    only their *streams* images and run as two warm chunks, split at
    an offset that is not a multiple of *depth*."""
    warm = jobs[0][1]
    rest = [(scalars, {name: image for name, image in memories.items()
                       if name in streams})
            for scalars, memories in jobs[1:]]
    split = max(1, len(rest) - max(1, depth // 2 + 1))
    return [(rest[:split], warm), (rest[split:], None)]


# -- legs --------------------------------------------------------------------

class EngineLeg:
    """The scalar compiled engine; the base adapter.

    ``run`` returns one ``(results, cycles, replies)`` per job, where
    *replies* maps each requested memory to its image after the job.
    """

    kind = "engine"
    #: Per-job cycles are the sequential machine's latency.
    cycle_exact = True

    def __init__(self, kernel):
        self.kernel = kernel
        self.spec = kernel.spec
        self.level = kernel.opt_level
        self.name = "%s-O%d" % (self.kind, self.level)

    def reset(self, warm):
        self.kernel.reset()
        for name, image in warm.items():
            self.kernel.load_memory(name, image)

    def image(self, name):
        return self.kernel.memory_image(name)

    def run(self, jobs, replies):
        out = []
        for scalars, memories in jobs:
            results, cycles = self._run_one(scalars, memories)
            out.append((results, cycles,
                        {name: self.image(name) for name in replies}))
        return out

    def _run_one(self, scalars, memories):
        results, cycles, _ = self.kernel.run(
            max_cycles=MAX_CYCLES, memories=memories, **scalars)
        return results, cycles

    def finish(self, report):
        """Record executor facts on *report* after the stream."""


class InterpretedLeg(EngineLeg):
    """The interpreted netlist of a
    :class:`~repro.kiwi.compiler.CompiledDesign` — the oracle."""

    kind = "interpreter"

    def reset(self, warm):
        self.sim = self.kernel.simulator()
        for name, image in warm.items():
            for addr, value in enumerate(image):
                self.sim.poke_memory(name, addr, value)

    def image(self, name):
        depth = dict(self.spec.memory_params)[name].depth
        return [self.sim.peek_memory(name, addr) for addr in range(depth)]

    def _run_one(self, scalars, memories):
        results, cycles, _ = self.kernel.run_on(
            self.sim, max_cycles=MAX_CYCLES, memories=memories,
            **scalars)
        return results, cycles


class BatchedLeg(EngineLeg):
    """``BatchedKernel.run_batch``, one call per chunk (a batch exposes
    no per-job reply images).  A stream in which no chunk ran in
    lockstep is a ``lockstep`` mismatch: the proof would only have
    covered the sequential fallback."""

    kind = "batched"

    def __init__(self, kernel):
        super().__init__(kernel)
        self.name += "x%d" % kernel.batch

    def run(self, jobs, replies):
        return [(results, cycles, {}) for results, cycles
                in self.kernel.run_batch(jobs, max_cycles=MAX_CYCLES)]

    def finish(self, report):
        report.lockstep_batches = self.kernel.lockstep_batches
        report.fallback_batches = self.kernel.fallback_batches
        if not report.lockstep_batches:
            report.mismatches.append(Mismatch(
                "lockstep", self.name, None, "stream", ">= 1", 0))


class PipelinedLeg(EngineLeg):
    """``PipelinedKernel.run_stream``, one call per chunk.  Its
    latencies include overlap, so they are never compared.  When the
    kernel's ``-O3`` schedule is feasible, a stream that never had two
    requests in flight is an ``overlap`` mismatch."""

    kind = "pipelined"
    cycle_exact = False

    def __init__(self, kernel):
        super().__init__(kernel)
        self.name += "d%d" % kernel.depth
        self.peak = 0

    def run(self, jobs, replies):
        # run_stream's budget covers the whole chunk: give it the same
        # per-job allowance the reference leg gets.
        out = self.kernel.run_stream(
            jobs, max_cycles=MAX_CYCLES * max(1, len(jobs)))
        self.peak = max(self.peak, self.kernel.peak_in_flight)
        return [(results, cycles, {name: images[name] for name in replies})
                for results, cycles, images in out]

    def finish(self, report):
        report.achieved_ii = self.kernel.ii
        report.peak_in_flight = self.peak
        report.measured_interval = self.kernel.measured_interval()
        if report.achieved_ii is not None and self.peak < 2:
            report.mismatches.append(Mismatch(
                "overlap", self.name, None, "stream", ">= 2", self.peak))


# -- the report --------------------------------------------------------------

class Mismatch:
    """One divergence: the *kind* of property (``results``,
    ``latency``, ``replies``, ``memories``, ``timeout``, ``lockstep``,
    ``overlap``), the leg that diverged, the leg it was compared
    against, where in the stream, and both observations."""

    def __init__(self, kind, leg, against, where, expected, got):
        self.kind = kind
        self.leg = leg
        self.against = against
        self.where = where
        self.expected = expected
        self.got = got

    def __repr__(self):
        return ("Mismatch(%s: %s vs %s at %s: expected %r, got %r)"
                % (self.kind, self.leg, self.against, self.where,
                   self.expected, self.got))


def _same_machine(a, b):
    return a.cycle_exact and b.cycle_exact and a.level == b.level


class Report:
    """Outcome of one differential session."""

    def __init__(self, name, legs):
        self.name = name
        self.legs = [leg.name for leg in legs]
        #: True when some candidate's cycles are compared to the
        #: reference's (same-level sequential legs).
        self.compare_latency = any(_same_machine(legs[0], leg)
                                   for leg in legs[1:])
        self.chunks = 0
        self.runs = 0
        self.skipped = 0
        self.mismatches = []
        #: Total cycles per leg name over the compared jobs.
        self.cycles = {leg.name: 0 for leg in legs}
        self.lockstep_batches = 0
        self.fallback_batches = 0
        #: The -O3 schedule's initiation interval (None: serial issue).
        self.achieved_ii = None
        self.peak_in_flight = 0
        self.measured_interval = None

    @property
    def ok(self):
        return not self.mismatches and self.runs > 0

    @property
    def cycle_reduction(self):
        """Fraction of the reference's cycles the first candidate
        removed (the optimizer's win when the legs differ in level)."""
        base = self.cycles[self.legs[0]]
        if not base:
            return 0.0
        return 1.0 - self.cycles[self.legs[1]] / base

    def require(self, error=EngineError):
        """Raise *error* unless the session passed; returns self."""
        if not self.ok:
            detail = self.mismatches[0] if self.mismatches else \
                "no comparable runs"
            raise error("differential verification failed for %r "
                        "(%s): %r" % (self.name, " vs ".join(self.legs),
                                      detail))
        return self

    def __repr__(self):
        return ("Report(%s: %s; %d runs in %d chunks, %d skipped, "
                "%d mismatches)"
                % (self.name, " vs ".join(self.legs), self.runs,
                   self.chunks, self.skipped, len(self.mismatches)))


def _compare(report, where, first, second):
    a, a_runs, a_images = first
    b, b_runs, b_images = second
    if len(a_runs) != len(b_runs):
        report.mismatches.append(Mismatch(
            "results", b.name, a.name, where, len(a_runs), len(b_runs)))
    fields = [("results", 0), ("replies", 2)]
    if _same_machine(a, b):
        fields.append(("latency", 1))
    for job, (want, got) in enumerate(zip(a_runs, b_runs)):
        for kind, field in fields:
            if want[field] != got[field]:
                report.mismatches.append(Mismatch(
                    kind, b.name, a.name, "%s job %d" % (where, job),
                    want[field], got[field]))
    for name, image in a_images.items():
        other = b_images[name]
        if image != other:
            addr = next((i for i, (x, y) in enumerate(zip(image, other))
                         if x != y), min(len(image), len(other)))
            report.mismatches.append(Mismatch(
                "memories", b.name, a.name,
                "%s %s[%d]" % (where, name, addr),
                image[addr:addr + 1], other[addr:addr + 1]))


def differential(reference, candidates, chunks, replies=()):
    """Run *chunks* — ``(jobs, reset)`` pairs from :func:`cold_chunks`,
    :func:`batch_chunks` or :func:`split_chunks` — through the
    *reference* leg and every candidate leg, comparing every pair of
    legs after each chunk.  *replies* names the memories whose image
    after each job is compared as that job's reply bytes.  Returns a
    :class:`Report`; :meth:`Report.require` turns it into a gate."""
    legs = [reference] + list(candidates)
    memory_names = [name for name, _ in reference.spec.memory_params]
    report = Report(reference.spec.name, legs)
    for leg in legs:
        leg.reset({})
    for index, (jobs, reset) in enumerate(chunks):
        where = "chunk %d" % index
        if reset is not None:
            for leg in legs:
                leg.reset(reset)
        seen = []
        for leg in legs:
            try:
                runs = leg.run(jobs, replies)
            except _TIMEOUTS as exc:
                if leg is reference:
                    report.skipped += len(jobs)
                else:
                    report.mismatches.append(Mismatch(
                        "timeout", leg.name, reference.name, where,
                        "completed", str(exc)))
                for other in legs:
                    other.reset({})
                break
            seen.append((leg, runs,
                         {name: leg.image(name) for name in memory_names}))
        else:
            report.chunks += 1
            report.runs += len(jobs)
            for position, observed in enumerate(seen):
                report.cycles[observed[0].name] += sum(
                    cycles for _, cycles, _ in observed[1])
                for earlier in seen[:position]:
                    _compare(report, where, earlier, observed)
    for leg in candidates:
        leg.finish(report)
    return report
