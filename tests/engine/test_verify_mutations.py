"""The differential harness can fail: mutation tests.

Each test wraps a correct executor in a deliberately broken leg
adapter and asserts that :func:`repro.engine.verify.differential`
reports a mismatch of the named kind — one test per compared property
(results, memories, same-level latency, reply bytes, warm memories
after a chunk, lockstep engagement, pipelined overlap) plus both
timeout rules.  The unbroken twin of every session passes, so each
failure is the mutation's.

Seeded per tests/README: one module SEED, one stream per property.
"""

from repro.engine import (
    compile_kernel, compile_pipelined, differential,
)
from repro.engine.verify import (
    BatchedLeg, EngineLeg, InterpretedLeg, PipelinedLeg, batch_chunks,
    cold_chunks, random_jobs, split_chunks,
)
from repro.errors import EngineError
from repro.harness.optimization import memcached_request_inputs
from repro.kiwi.compiler import compile_function
from repro.services.memcached import memcached_kernel

SEED = "verify-mutations"


def kinds(report):
    return {mismatch.kind for mismatch in report.mismatches}


def cold_session(candidate_cls, seed, runs=4):
    """Interpreter -O0 against *candidate_cls* wrapping the -O0
    engine, on crafted memcached requests."""
    reference = compile_function(memcached_kernel, opt_level=0)
    jobs = random_jobs(reference.spec, seed, runs,
                       memcached_request_inputs)
    return differential(
        InterpretedLeg(reference),
        [candidate_cls(compile_kernel(memcached_kernel, opt_level=0))],
        cold_chunks(jobs))


def batch_session(batched_cls, seed, batch=4, batches=3):
    """Interpreter, scalar engine and *batched_cls* on a warm
    batch stream of crafted memcached requests."""
    reference = compile_function(memcached_kernel, opt_level=0)
    jobs = random_jobs(reference.spec, seed, batch * batches,
                       memcached_request_inputs)
    return differential(
        InterpretedLeg(reference),
        [EngineLeg(compile_kernel(memcached_kernel, opt_level=0)),
         batched_cls(compile_kernel(memcached_kernel, opt_level=0,
                                    batch=batch))],
        batch_chunks(jobs, batch, seed))


def pipeline_session(pipelined_cls, seed, depth=4, requests=12):
    """Sequential -O0 engine against *pipelined_cls* at -O3."""
    piped = compile_pipelined(memcached_kernel, depth=depth)
    jobs = random_jobs(piped.spec, seed, requests + 1,
                       memcached_request_inputs)
    return differential(
        EngineLeg(compile_kernel(memcached_kernel, opt_level=0)),
        [pipelined_cls(piped)],
        split_chunks(jobs, depth, piped.stream_memories),
        replies=piped.stream_memories)


# -- the unbroken twins ------------------------------------------------------

def test_unbroken_sessions_pass():
    assert cold_session(EngineLeg, "%s/cold" % SEED).ok
    assert batch_session(BatchedLeg, "%s/batch" % SEED).ok
    assert pipeline_session(PipelinedLeg, "%s/pipe" % SEED).ok


# -- one mutation per compared property --------------------------------------

class FlipResultBit(EngineLeg):
    def run(self, jobs, replies):
        return [((results[0] ^ 1,) + results[1:], cycles, images)
                for results, cycles, images in super().run(jobs, replies)]


def test_flipped_result_bit_is_a_results_mismatch():
    assert "results" in kinds(cold_session(FlipResultBit,
                                           "%s/cold" % SEED))


class ChangeMemoryWord(EngineLeg):
    def image(self, name):
        image = super().image(name)
        if name == "frame":
            image[0] ^= 0x40
        return image


def test_changed_memory_word_is_a_memories_mismatch():
    report = cold_session(ChangeMemoryWord, "%s/cold" % SEED)
    assert kinds(report) == {"memories"}
    assert "frame[0]" in report.mismatches[0].where


class ExtraCycle(EngineLeg):
    def _run_one(self, scalars, memories):
        results, cycles = super()._run_one(scalars, memories)
        return results, cycles + 1


def test_extra_cycle_at_same_level_is_a_latency_mismatch():
    report = cold_session(ExtraCycle, "%s/cold" % SEED)
    assert report.compare_latency
    assert kinds(report) == {"latency"}


def test_extra_cycle_across_levels_is_exempt():
    """The same mutation against a different-level reference is not a
    mismatch: cross-level latency is exempt by design."""
    reference = compile_function(memcached_kernel, opt_level=0)
    report = differential(
        InterpretedLeg(reference),
        [ExtraCycle(compile_kernel(memcached_kernel, opt_level=2))],
        cold_chunks(random_jobs(reference.spec, "%s/cold" % SEED, 4,
                                memcached_request_inputs)))
    assert not report.compare_latency
    assert report.ok, report.mismatches[:1]


class CorruptReply(PipelinedLeg):
    def run(self, jobs, replies):
        out = super().run(jobs, replies)
        for _, _, images in out:
            images["frame"] = [images["frame"][0] ^ 1] + \
                images["frame"][1:]
        return out


def test_corrupted_reply_bytes_are_a_replies_mismatch():
    report = pipeline_session(CorruptReply, "%s/pipe" % SEED)
    assert kinds(report) == {"replies"}


class CorruptWarmMemory(BatchedLeg):
    """Flips a word of a warm (never per-job loaded) memory after the
    second chunk."""

    chunks = 0

    def run(self, jobs, replies):
        out = super().run(jobs, replies)
        self.chunks += 1
        if self.chunks == 2:
            value = self.kernel.peek_memory("kvalid", 0)
            self.kernel.poke_memory("kvalid", 0, value ^ 1)
        return out


def test_corrupted_warm_memory_is_a_memories_mismatch_against_both():
    report = batch_session(CorruptWarmMemory, "%s/batch" % SEED)
    memories = [m for m in report.mismatches if m.kind == "memories"]
    assert memories
    assert memories[0].where.startswith("chunk 1 kvalid[0]")
    assert {m.against for m in memories} == {"interpreter-O0",
                                             "engine-O0"}


class NeverLockstep(BatchedLeg):
    def __init__(self, kernel):
        kernel.lockstep_capable = False
        super().__init__(kernel)


def test_batched_leg_without_lockstep_is_a_lockstep_mismatch():
    report = batch_session(NeverLockstep, "%s/batch" % SEED)
    assert kinds(report) == {"lockstep"}
    assert report.lockstep_batches == 0
    assert report.fallback_batches > 0


class NeverOverlap(PipelinedLeg):
    def __init__(self, kernel):
        kernel.depth = 1
        super().__init__(kernel)


def test_pipelined_leg_without_overlap_is_an_overlap_mismatch():
    report = pipeline_session(NeverOverlap, "%s/pipe" % SEED)
    assert report.achieved_ii is not None
    assert report.peak_in_flight == 1
    assert kinds(report) == {"overlap"}


# -- the timeout rules -------------------------------------------------------

class TimesOut(EngineLeg):
    def run(self, jobs, replies):
        raise EngineError("did not finish")


def test_candidate_timeout_is_a_timeout_mismatch():
    report = cold_session(TimesOut, "%s/cold" % SEED)
    assert kinds(report) == {"timeout"}
    assert report.runs == 0


class ReferenceTimesOutOnce(InterpretedLeg):
    """Times out on the third chunk only, after running its first job
    (as a real timeout does), so its warm state has moved on while the
    candidates never ran that chunk."""

    chunks = 0

    def run(self, jobs, replies):
        self.chunks += 1
        if self.chunks == 3:
            super().run(jobs[:1], replies)
            raise EngineError("did not finish")
        return super().run(jobs, replies)


def test_reference_timeout_skips_the_chunk_and_resets_warm_legs():
    """The timed-out chunk is skipped on every leg; the warm legs are
    reset, so the chunk after it — which loads only some memories and
    so sees the warm rest — still agrees."""
    reference = compile_function(memcached_kernel, opt_level=0)
    jobs = random_jobs(reference.spec, "%s/batch" % SEED, 16,
                       memcached_request_inputs)
    chunks = batch_chunks(jobs, 4, "%s/batch" % SEED)
    report = differential(
        ReferenceTimesOutOnce(reference),
        [EngineLeg(compile_kernel(memcached_kernel, opt_level=0))],
        chunks)
    assert report.ok, report.mismatches[:1]
    assert report.skipped == len(chunks[2][0])
    assert report.chunks == len(chunks) - 1
