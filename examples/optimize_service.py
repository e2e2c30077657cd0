"""The optimizing middle-end on a real service: Memcached.

1. compile the binary-protocol Memcached kernel at -O0, -O1 and -O2,
2. show what each pass did (states, registers, shared wires),
3. measure a warmed GET request on each design — the cycles-per-request
   number every Table 3/4 row multiplies,
4. prove observational equivalence with differential co-simulation.

Run:  python examples/optimize_service.py
"""

from repro.harness.optimization import (
    memcached_binary_frame, memcached_request_inputs,
    run_opt_comparison,
)
from repro.engine.verify import (
    InterpretedLeg, cold_chunks, differential, random_jobs,
)
from repro.kiwi import compile_function
from repro.net.packet import ip_to_int
from repro.services.memcached import memcached_kernel

SERVICE_IP = ip_to_int("10.0.0.1")


def main():
    print("=== compile Memcached at every level ===")
    designs = {level: compile_function(memcached_kernel, opt_level=level)
               for level in (0, 1, 2)}
    for level, design in designs.items():
        print("-O%d: %d states, max %d logic levels, %d LUT-eq"
              % (level, design.state_count,
                 design.timing.max_logic_levels,
                 design.resources().logic))
    print("\npass statistics at -O2:")
    for stats in designs[2].pass_stats:
        if stats.changed():
            print("  %r" % stats)

    print("\n=== a warmed GET request on each design ===")
    key, value = b"abc123", bytes(range(8))
    for level, design in designs.items():
        sim = design.simulator()
        design.run_on(sim,
                      memories={"frame": memcached_binary_frame(
                          1, key, value)},
                      my_ip=SERVICE_IP)
        (status,), cycles, _ = design.run_on(
            sim, memories={"frame": memcached_binary_frame(0, key)},
            my_ip=SERVICE_IP)
        print("-O%d: GET hit=%d in %d cycles" % (level, status, cycles))

    print("\n=== differential co-simulation (-O2 vs -O0) ===")
    # Crafted binary requests so the deep GET/SET paths are what gets
    # compared (random noise would only exercise the header rejects).
    base = designs[0]
    report = differential(
        InterpretedLeg(base), [InterpretedLeg(designs[2])],
        cold_chunks(random_jobs(base.spec, "kiwi-opt", 12,
                                memcached_request_inputs)))
    print(report)
    assert report.ok, "optimizer broke the kernel!"
    assert report.cycle_reduction > 0.1

    print("\n=== every service kernel ===")
    _, text = run_opt_comparison()
    print(text)

    print("\n=== the same comparison through the Deployment API ===")
    from repro.harness.optimization import run_deployment_comparison
    _, text = run_deployment_comparison(count=120)
    print(text)
    print("(deploy(service).on('fpga').with_opt(level) threads the "
          "optimizer through the whole spine — any registry service, "
          "any backend)")


if __name__ == "__main__":
    main()
