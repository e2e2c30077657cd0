"""Pipelined executor: N requests in flight == sequential -O0.

The -O3 schedule is a *feasibility proof*; the dynamic executor in
:mod:`repro.engine.pipelined` is what demonstrates it holds: a new
request issues every II cycles, hazard stalls only on real shared-
memory dependences, strict in-order retire.  These tests check

* six-kernel differential: every service kernel, pipelined at depth
  >= 4, matches the sequential -O0 engine exactly (per-request
  results, reply bytes, final memory images) — with deep inputs (the
  kernels' representative requests and warmups) mixed into the random
  stream;
* crafted hazard kernels forcing II > 1 still match, and the measured
  issue interval equals the static II;
* ragged in-flight shutdown: draining mid-stream and resuming keeps
  parity (the check splits its stream on purpose);
* infeasible kernels fall back to serial issue and still match.

Every proof is one :func:`repro.engine.verify.differential` session:
the sequential -O0 engine is the reference leg, the pipelined executor
the candidate, and the job stream is :func:`split_chunks` (a warm seed,
then per-request frames in two chunks).
"""

import pytest

from repro.engine import compile_kernel, compile_pipelined, differential
from repro.engine.verify import (
    EngineLeg, PipelinedLeg, random_jobs, split_chunks,
)
from repro.errors import EngineError
from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_request_inputs,
)

SEED = "engine-pipelined-1"


def pipelined_vs_sequential(fn, depth, requests, seed, input_factory=None,
                            deep_inputs=(), level_budget=None):
    """*requests* warm requests through the -O3 pipelined executor at
    *depth* and the sequential -O0 engine; per-request reply bytes
    (the stream memories) are compared too."""
    piped = compile_pipelined(fn, depth=depth, level_budget=level_budget)
    jobs = random_jobs(piped.spec, seed, requests + 1, input_factory,
                       deep_inputs)
    return differential(
        EngineLeg(compile_kernel(fn, opt_level=0)), [PipelinedLeg(piped)],
        split_chunks(jobs, depth, piped.stream_memories),
        replies=piped.stream_memories)

#: Kernels whose -O3 schedule is feasible (see tests/kiwi/test_pipeline).
OVERLAPPING = {"ICMP echo", "memcached GET", "NAT outbound"}


def _deep_inputs(case):
    """A case's representative request + warmups as (scalars, memories)
    jobs (KernelCase stores warmups as (memories, scalars) — reversed)."""
    jobs = [(case.scalars, case.memories)]
    jobs.extend((scalars, memories)
                for memories, scalars in case.warmups)
    return jobs


# -- crafted hazard kernels (branch diamonds pin the shared-memory
#    read/write to distinct stages; see tests/kiwi/test_pipeline.py) --

def drain_raw3(frame: "mem[16]x8", acc: "mem[16]x8") -> "u8":
    x = acc[bits(frame[0], 4)]
    if frame[1] > 10:
        pause()
        y = x + 1
    else:
        pause()
        y = x + 2
    pause()
    acc[bits(frame[2], 4)] = bits(y, 8)
    if frame[3] > 10:
        pause()
        z = y + 3
    else:
        pause()
        z = y + 4
    pause()
    return bits(z + frame[4], 8)


def drain_raw2(frame: "mem[16]x8", acc: "mem[16]x8") -> "u8":
    t = frame[0] + frame[1]
    if frame[1] > 10:
        pause()
        x = acc[bits(frame[0], 4)] + 1
    else:
        pause()
        x = t + 2
    pause()
    acc[bits(frame[2], 4)] = bits(x, 8)
    if frame[3] > 10:
        pause()
        z = x + 3
    else:
        pause()
        z = x + t
    pause()
    return bits(z + frame[4], 8)


class TestServiceKernelDifferential:
    """Acceptance: pipelined == sequential on all six service kernels."""

    @pytest.mark.parametrize(
        "case", SERVICE_KERNELS, ids=lambda c: c.name)
    def test_pipelined_matches_sequential(self, case):
        report = pipelined_vs_sequential(
            case.kernel, depth=4, requests=24,
            seed="%s/%s" % (SEED, case.name),
            deep_inputs=_deep_inputs(case)).require()
        assert report.runs >= 4
        assert report.mismatches == []
        if case.name in OVERLAPPING:
            assert report.achieved_ii is not None
            assert report.peak_in_flight >= 2
        else:
            # Serial fallback: the infeasible kernels never overlap.
            assert report.achieved_ii is None
            assert report.peak_in_flight == 1

    def test_memcached_protocol_stream(self):
        """Real GET/SET traffic (not random bytes) through the
        pipelined memcached kernel, deep — depth 8, 48 requests."""
        case = next(c for c in SERVICE_KERNELS
                    if c.name == "memcached GET")
        report = pipelined_vs_sequential(
            case.kernel, depth=8, requests=48,
            seed="%s/memcached-protocol" % SEED,
            input_factory=memcached_request_inputs).require()
        assert report.achieved_ii == 1
        assert report.peak_in_flight >= 3


class TestHazardKernels:
    """Forced II > 1: overlap happens, but never past the hazard."""

    @pytest.mark.parametrize("kernel,expected_ii",
                             [(drain_raw3, 3), (drain_raw2, 2)],
                             ids=["raw3", "raw2"])
    def test_hazard_parity_and_interval(self, kernel, expected_ii):
        report = pipelined_vs_sequential(
            kernel, depth=8, requests=40,
            seed="%s/hazard" % SEED).require()
        assert report.mismatches == []
        assert report.achieved_ii == expected_ii
        assert report.peak_in_flight >= 2
        # The dynamic executor achieves the static schedule: issues are
        # spaced exactly II cycles apart in steady state.
        assert report.measured_interval == float(expected_ii)


class TestRaggedShutdown:
    """Draining the pipeline mid-stream (the check splits its job
    stream across two run_stream calls) keeps parity at every depth."""

    @pytest.mark.parametrize("depth", [2, 3, 5, 8])
    def test_depths(self, depth):
        report = pipelined_vs_sequential(
            drain_raw2, depth=depth, requests=19,
            seed="%s/ragged-%d" % (SEED, depth))
        assert report.ok, report.mismatches[:3]
        assert report.runs == 19

    def test_explicit_partial_drain(self):
        """run_stream with fewer jobs than the pipeline depth drains
        cleanly and retires in order."""
        kernel = compile_pipelined(drain_raw3, depth=8)
        serial = compile_pipelined(drain_raw3, depth=1)
        jobs = [({}, {"frame": [(7 * i + j) % 251 for j in range(16)]})
                for i in range(3)]

        def images(runner):
            out = runner.run_stream([(dict(s), {k: list(v)
                                                for k, v in m.items()})
                                     for s, m in jobs])
            return [(results, stream) for results, _, stream in out]

        assert images(kernel) == images(serial)
        assert kernel.peak_in_flight <= 3


class TestSerialFallback:
    """Kernels the analysis refuses still run — serially — and match."""

    def test_infeasible_kernel_runs_serial(self):
        case = next(c for c in SERVICE_KERNELS if c.name == "DNS")
        kernel = compile_pipelined(case.kernel, depth=4)
        assert kernel.schedule is not None
        assert not kernel.schedule.feasible
        report = pipelined_vs_sequential(
            case.kernel, depth=4, requests=12,
            seed="%s/dns-serial" % SEED,
            deep_inputs=_deep_inputs(case))
        assert report.ok
        assert report.peak_in_flight == 1

    def test_tight_budget_falls_back(self):
        """level_budget threads into the pipelined compile: a budget
        too small for pipeline control forces serial issue, parity
        intact."""
        piped = compile_pipelined(drain_raw2, depth=4)
        assert piped.schedule.feasible
        squeezed = compile_pipelined(drain_raw2, depth=4, level_budget=2)
        assert not squeezed.schedule.feasible
        assert "budget" in squeezed.schedule.reason
        report = pipelined_vs_sequential(
            drain_raw2, depth=4, requests=10, level_budget=2,
            seed="%s/budget-serial" % SEED)
        assert report.ok
        assert report.achieved_ii is None


class TestJobValidation:
    def test_non_stream_memory_rejected(self):
        kernel = compile_pipelined(drain_raw2, depth=2)
        with pytest.raises(EngineError):
            kernel.run_stream([({}, {"frame": [0] * 16,
                                     "acc": [0] * 16})])

    def test_short_stream_image_rejected(self):
        kernel = compile_pipelined(drain_raw2, depth=2)
        with pytest.raises(EngineError):
            kernel.run_stream([({}, {"frame": [0] * 4})])
