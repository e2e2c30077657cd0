"""Engine/interpreter differential suite.

The compiled execution spine must be *observationally indistinguishable*
from the interpreted netlist simulator:

* same level (engine -On vs interpreter -On): byte-identical results,
  final memory contents, and cycle counts, for every service kernel,
  on seeded random inputs (uniform noise + protocol dictionary bytes)
  and on crafted deep-path requests;
* cross level (engine -O2 vs interpreter -O0): results and final
  memories still match — the engine composes with the optimizer's own
  differential proof;
* warm state: a request sequence on one warm kernel matches the same
  sequence on one warm simulator, step for step.

Every proof is one :func:`repro.engine.verify.differential` session:
the interpreted netlist is the reference leg, the scalar engine the
candidate, and the job stream is cold (every leg reset per job).

Seeded per tests/README: one module SEED, one stream per property.
"""

import pytest

from repro.engine import compile_design, compile_kernel
from repro.engine.verify import (
    EngineLeg, InterpretedLeg, cold_chunks, differential, random_jobs,
)
from repro.errors import EngineError
from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_binary_frame, memcached_request_inputs,
)
from repro.kiwi.compiler import compile_function
from repro.services.memcached import memcached_kernel

SEED = "engine-differential"


def engine_vs_interpreter(kernel, opt_level, base_level=None, runs=12,
                          seed=SEED, input_factory=None):
    """The scalar engine at -Oopt_level against the interpreter at
    -Obase_level (default: the same level) on *runs* cold jobs."""
    reference = compile_function(
        kernel, opt_level=opt_level if base_level is None else base_level)
    return differential(
        InterpretedLeg(reference),
        [EngineLeg(compile_kernel(kernel, opt_level=opt_level))],
        cold_chunks(random_jobs(reference.spec, seed, runs,
                                input_factory)))

KERNEL_CASES = [(case.name, case.kernel) for case in SERVICE_KERNELS]
KERNEL_IDS = [name for name, _ in KERNEL_CASES]


@pytest.mark.parametrize("name,kernel", KERNEL_CASES, ids=KERNEL_IDS)
def test_engine_matches_interpreter_at_o0(name, kernel):
    report = engine_vs_interpreter(
        kernel, opt_level=0, runs=5,
        seed="%s/same-level" % SEED)
    assert report.ok, report.mismatches[:1]
    assert report.compare_latency
    # Same machine, so the engine simulated exactly the same cycles.
    assert report.cycles["engine-O0"] == report.cycles["interpreter-O0"]


@pytest.mark.parametrize("name,kernel", KERNEL_CASES, ids=KERNEL_IDS)
def test_engine_o2_matches_interpreter_o0(name, kernel):
    """The satellite contract: the engine compiled from the *optimized*
    FSM still reproduces the unoptimized interpreter's observable
    behaviour (results + final memories; cycles differ by design)."""
    report = engine_vs_interpreter(
        kernel, opt_level=2, base_level=0, runs=5,
        seed="%s/cross-level" % SEED)
    assert report.ok, report.mismatches[:1]
    assert not report.compare_latency


def test_engine_crafted_memcached_requests():
    """Deep GET/SET/DELETE paths via the crafted input factory, at
    every opt level."""
    for level in (0, 1, 2):
        report = engine_vs_interpreter(
            memcached_kernel, opt_level=level, runs=6,
            seed="%s/crafted/%d" % (SEED, level),
            input_factory=memcached_request_inputs)
        assert report.ok, (level, report.mismatches[:1])


def test_require_returns_report():
    report = engine_vs_interpreter(memcached_kernel, opt_level=1,
                                   runs=3, seed=SEED)
    assert report.require() is report
    assert report.runs == 3


def test_warm_state_matches_warm_simulator():
    """SET then GET of the same key: the engine's persistent memories
    and registers must track the warm simulator exactly."""
    key = b"warmkey"[:6]
    set_frame = memcached_binary_frame(1, key, bytes(range(8)))
    get_frame = memcached_binary_frame(0, key)
    design = compile_function(memcached_kernel, opt_level=0)
    sim = design.simulator()
    kernel = compile_design(design)
    for frame in (set_frame, get_frame, get_frame):
        expected = design.run_on(sim, memories={"frame": list(frame)},
                                 my_ip=0x0A000001)
        actual = kernel.run(memories={"frame": list(frame)},
                            my_ip=0x0A000001)
        assert actual[0] == expected[0]
        assert actual[1] == expected[1]
    for mem_name, mem in design.spec.memory_params:
        expected_image = [sim.peek_memory(mem_name, addr)
                          for addr in range(mem.depth)]
        assert kernel.memory_image(mem_name) == expected_image


def test_engine_timeout_raises_engine_error():
    kernel = compile_kernel(memcached_kernel, opt_level=0)
    with pytest.raises(EngineError):
        kernel.run(max_cycles=2,
                   memories={"frame": memcached_binary_frame(0, b"abcdef")},
                   my_ip=1)


def test_engine_rejects_unknown_inputs():
    kernel = compile_kernel(memcached_kernel, opt_level=0)
    with pytest.raises(EngineError):
        kernel.run(not_a_param=1)
    with pytest.raises(EngineError):
        kernel.run(memories={"not_a_memory": [0]})


def test_reset_restores_power_on_state():
    kernel = compile_kernel(memcached_kernel, opt_level=0)
    kernel.run(memories={"frame": memcached_binary_frame(
        1, b"abc123", bytes(range(8)))}, my_ip=7)
    assert any(kernel.memory_image("kvalid"))
    kernel.reset()
    assert not any(kernel.memory_image("kvalid"))
    assert not any(kernel.memory_image("frame"))
