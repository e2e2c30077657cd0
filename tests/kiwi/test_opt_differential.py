"""Differential property tests for the optimizing middle-end.

Properties (seeded per tests/README.md conventions):

* for every service kernel and for randomly *generated* kernels, the
  ``-O2`` design produces the same results and final memory contents as
  ``-O0`` on random inputs (differential co-simulation);
* optimized designs still emit Verilog via ``emit_verilog`` without
  error;
* the acceptance bar: the memcached GET path loses >= 10% of its
  simulated cycles at ``-O2``.
"""

import importlib.util
import random

from repro.harness.optimization import (
    SERVICE_KERNELS, measure_kernel, memcached_request_inputs,
)
from repro.engine.verify import (
    InterpretedLeg, cold_chunks, differential, random_jobs,
)
from repro.kiwi import compile_function
from repro.services.dns_server import dns_kernel
from repro.services.filter_l3l4 import filter_kernel
from repro.services.icmp_echo import icmp_echo_kernel
from repro.services.memcached import memcached_kernel
from repro.services.nat import nat_kernel
from repro.services.switch import switch_kernel

SEED = "kiwi-opt-differential-1"


def _rng(name):
    return random.Random("%s/%s" % (SEED, name))


def opt_vs_o0(kernel, opt_level, runs, seed=SEED, input_factory=None):
    """The -Oopt_level netlist against the -O0 netlist on *runs* cold
    jobs (both legs interpreted)."""
    base = compile_function(kernel, opt_level=0)
    return differential(
        InterpretedLeg(base),
        [InterpretedLeg(compile_function(kernel, opt_level=opt_level))],
        cold_chunks(random_jobs(base.spec, seed, runs, input_factory)))


# -- fixed kernels ---------------------------------------------------------

def gcd(a: "u16", b: "u16") -> "u16":
    while b != 0:
        pause()
        if a >= b:
            a = a - b
        else:
            t = a
            a = b
            b = t + 0
    return a


def sum_buf(buf: "mem[16]x8", n: "u8") -> "u16":
    total = 0
    i = 0
    while i < n:
        total = total + buf[i]
        i = i + 1
        pause()
    return bits(total, 16)


SERVICE_KERNEL_FNS = [switch_kernel, icmp_echo_kernel, dns_kernel,
                      memcached_kernel, nat_kernel, filter_kernel]


class TestServiceKernelEquivalence:
    def test_loop_kernels_equivalent_at_o2(self):
        for kernel in (gcd, sum_buf):
            report = opt_vs_o0(kernel, opt_level=2, runs=8, seed=SEED)
            assert report.ok, report

    def test_service_kernels_equivalent_at_o2(self):
        for kernel in SERVICE_KERNEL_FNS:
            report = opt_vs_o0(kernel, opt_level=2, runs=6, seed=SEED)
            assert report.ok, report

    def test_service_kernels_equivalent_at_o1(self):
        for kernel in SERVICE_KERNEL_FNS:
            report = opt_vs_o0(kernel, opt_level=1, runs=4, seed=SEED)
            assert report.ok, report
            assert report.cycle_reduction == 0.0   # -O1 is cycle-neutral

    def test_memcached_crafted_requests_equivalent(self):
        """Valid binary requests (not just noise) through both designs."""
        report = opt_vs_o0(memcached_kernel, opt_level=2, runs=12,
                           seed=SEED,
                           input_factory=memcached_request_inputs)
        assert report.ok, report
        assert report.cycle_reduction > 0.1

    def test_verify_inputs_reaches_deep_paths(self):
        """compile_function(verify=True, verify_inputs=...) proves the
        real request path, and the report shows the cycle win."""
        design = compile_function(
            memcached_kernel, opt_level=2, verify=True,
            verify_inputs=memcached_request_inputs)
        assert design.verification.ok
        assert design.verification.cycle_reduction > 0.1

    def test_optimized_verilog_still_emits(self):
        for kernel in SERVICE_KERNEL_FNS:
            for level in (1, 2):
                text = compile_function(kernel, opt_level=level).verilog()
                assert text.startswith("module ")
                assert "endmodule" in text


# -- random generated kernels ----------------------------------------------

_BINOPS = ["+", "-", "*", "&", "|", "^", "%"]


def _gen_expr(rng, names):
    def atom():
        if rng.random() < 0.6:
            return rng.choice(names)
        return str(rng.randint(0, 255))

    text = atom()
    for _ in range(rng.randint(0, 2)):
        text = "(%s %s %s)" % (text, rng.choice(_BINOPS), atom())
    return text


def _gen_kernel(rng, index):
    """One random straight-line/branchy kernel over two scalars and a
    small memory — assignments, comb and stateful ifs, memory traffic,
    and pauses, all fodder for every pass."""
    lines = ['def k%d(a: "u16", b: "u16", buf: "mem[16]x8") -> "u16":'
             % index]
    names = ["a", "b"]
    fresh = [0]

    def new_name():
        fresh[0] += 1
        return "v%d" % fresh[0]

    for _ in range(rng.randint(5, 12)):
        roll = rng.random()
        if roll < 0.12:
            lines.append("    pause()")
        elif roll < 0.27:
            lines.append("    buf[bits(%s, 4)] = %s"
                         % (_gen_expr(rng, names), _gen_expr(rng, names)))
        elif roll < 0.42:
            name = new_name()
            lines.append("    %s = buf[bits(%s, 4)]"
                         % (name, _gen_expr(rng, names)))
            names.append(name)
        elif roll < 0.62:
            target = rng.choice(names)
            lines.append("    if %s > %s:" % (_gen_expr(rng, names),
                                              _gen_expr(rng, names)))
            body = ["        %s = %s" % (target, _gen_expr(rng, names))]
            if rng.random() < 0.3:
                body.insert(0, "        pause()")   # stateful if
            lines.extend(body)
            lines.append("    else:")
            lines.append("        %s = %s" % (target,
                                              _gen_expr(rng, names)))
        else:
            name = new_name()
            lines.append("    %s = %s" % (name, _gen_expr(rng, names)))
            names.append(name)
    lines.append("    return bits(%s, 16)" % _gen_expr(rng, names))
    return "\n".join(lines) + "\n"


def test_random_kernels_equivalent_at_o2(tmp_path):
    """Property: for random kernels and random inputs, -O2 == -O0 and
    the optimized Verilog emits cleanly."""
    rng = _rng("random-kernels")
    count = 8
    source = "\n\n".join(_gen_kernel(rng, index) for index in range(count))
    path = tmp_path / "generated_kernels.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("generated_kernels",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for index in range(count):
        kernel = getattr(module, "k%d" % index)
        report = opt_vs_o0(kernel, opt_level=2, runs=5, seed=SEED)
        assert report.ok, "kernel %d: %r\n%s" % (index, report, source)
        text = compile_function(kernel, opt_level=2).verilog()
        assert "endmodule" in text


# -- the acceptance bar ----------------------------------------------------

class TestAcceptance:
    def test_memcached_get_at_least_ten_percent_faster(self):
        """>= 10% fewer simulated cycles per GET at -O2, same results."""
        case = next(c for c in SERVICE_KERNELS
                    if c.name == "memcached GET")
        _, results_o0, cycles_o0 = measure_kernel(case, 0)
        _, results_o2, cycles_o2 = measure_kernel(case, 2)
        assert results_o0 == results_o2
        assert cycles_o2 <= 0.9 * cycles_o0, \
            "expected >=10%% reduction, got %d -> %d" % (cycles_o0,
                                                         cycles_o2)

    def test_every_service_kernel_no_slower_at_o2(self):
        for case in SERVICE_KERNELS:
            _, results_o0, cycles_o0 = measure_kernel(case, 0)
            _, results_o2, cycles_o2 = measure_kernel(case, 2)
            assert results_o0 == results_o2, case.name
            assert cycles_o2 <= cycles_o0, case.name

    def test_fpga_target_opt_level_threads_through(self):
        """The Table 3/4 plumbing: compiled-kernel cycle model per level."""
        from repro.net.packet import ip_to_int
        from repro.net.workloads import memaslap_mix
        from repro.services import MemcachedService
        from repro.targets import FpgaTarget
        service_ip = ip_to_int("10.0.0.1")
        client_ip = ip_to_int("10.0.0.2")
        averages = {}
        for level in (0, 2):
            target = FpgaTarget(
                MemcachedService(my_ip=service_ip,
                                 profile="paper-initial"),
                seed=7, opt_level=level)
            for frame in memaslap_mix(service_ip, client_ip, count=30,
                                      seed=7, protocol="binary"):
                target.send(frame)
            model = target.pipeline.cycle_model
            averages[level] = model.average_cycles()
        assert averages[2] <= 0.9 * averages[0]
