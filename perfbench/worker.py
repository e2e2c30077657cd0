"""One slice of a benchmark run, measured in a fresh process.

    python3 perfbench/worker.py --workload kernel-closed --seed 1 \\
        --seconds 5 --launch-ns <time.monotonic_ns() at launch>

A slice sets its workload up (imports, ``start()``, untimed prefill and
warm-up), measures for ``--seconds``, then checks every reply it saw.
It prints one JSON object as its last stdout line; ``run.py`` starts
the slices and folds them into the run's metrics.

With ``--traced`` the slice also records layer spans (see
``spans.py``) and reports per-layer self times.  ``--inject`` breaks
one reply on purpose (``corrupt`` or ``missing``) so the checks can be
tested.
"""

import argparse
import array
import json
import os
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import out_dir  # noqa: E402
from spans import SpanRecorder, layer_self_ns  # noqa: E402

# -- workload parameters (README.md explains each choice) --------------------

#: kernel-closed: requests per timed ``Deployment.run`` call.
KERNEL_CHUNK = 1000
#: memaslap's default key space and value width (the binary prototype).
KERNEL_KEYS = 1024
KERNEL_VALUE = 8
WARMUP_REQUESTS = 200

#: openloop-bulk: ~80% of the mix's modeled max_qps (578.9k req/s when
#: the benchmark was written).  Fixed here so that a change to the
#: timing model cannot silently change the offered load.
BULK_QPS = 460_000.0
BULK_KEYS = 4096
BULK_VALUE = 512
BULK_GET_RATIO = 0.5
#: Virtual milliseconds per timed ``run_open_loop`` call / warm-up.
BULK_CHUNK_MS = 2.4
BULK_WARMUP_MS = 0.5

#: serve-udp: loadgen probes per closed-loop round, rounds per fresh
#: server, prefill keys, warm-up probes, and the per-reply timeout.
SERVE_ROUND = 1000
SERVE_SESSION_ROUNDS = 8
SERVE_KEYS = 1024
SERVE_WARMUP = 200
SERVE_TIMEOUT_S = 1.0
SERVE_START_TIMEOUT_S = 60.0

#: The timed request whose reply ``--inject`` breaks.
INJECT_AT = 10

SERVING_LINE = re.compile(r"^serving \S+ over udp on (\S+):(\d+)\s*$")
REPORT_ROW = re.compile(r"^(\w+)\s+(\S+)\s*$")


def chunk_seed(seed, index):
    """Workload seed of timed call *index* (-1 = warm-up).  Every slice
    of a run replays the same sequence, so their outputs compare."""
    return seed * 1_000_003 + index + 1


def value_for(key, width):
    """The key -> value rule of ``memaslap_mix`` (a value derived from
    the key, CR/LF-free so ASCII framing holds)."""
    base = sum(key) & 0xFF
    return bytes((base + i) & 0xFF for i in range(width)) \
        .replace(b"\r", b"\x00").replace(b"\n", b"\x00")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reply_crc(emitted):
    """A digest of a request's reply frames (-1: no reply)."""
    if not emitted:
        return -1
    value = 0
    for port, frame in emitted:
        value = zlib.crc32(frame.data, zlib.crc32(bytes((port,)), value))
    return value


# -- reply capture and the replay check ---------------------------------------

class Batch:
    """The requests of one call into the program: a digest of each
    request and of its reply, and the wall time of each (timed calls
    only).  ``factory()`` regenerates the call's frames."""

    def __init__(self, factory):
        self.factory = factory
        self.requests = array.array("q")
        self.replies = array.array("q")
        self.latencies_ns = array.array("q")


class Capture:
    """Records every request and reply passing one program entry point,
    batch by batch; :meth:`verify` replays the batches through a
    reference backend."""

    def __init__(self, inject=None):
        self.batches = []
        self.timing = False
        self.inject = inject
        self.timed = 0

    def begin(self, factory):
        """Start the batch whose frames ``factory()`` regenerates."""
        self.batches.append(Batch(factory))
        return self.batches[-1]

    @property
    def captured(self):
        return sum(len(batch.requests) for batch in self.batches)

    def install(self, owner, attr):
        """Capture every ``owner.attr(frame, ...)`` call; its result's
        first element is the emitted ``(port, frame)`` list."""
        original = getattr(owner, attr)
        clock = time.perf_counter_ns
        crc = zlib.crc32

        def captured(frame, *args, **kwargs):
            batch = self.batches[-1]
            request = crc(frame.data)
            start = clock()
            result = original(frame, *args, **kwargs)
            elapsed = clock() - start
            emitted = result[0]
            if self.timing:
                batch.latencies_ns.append(elapsed)
                self.timed += 1
                if self.inject and self.timed == INJECT_AT:
                    emitted = self._break(emitted)
                    result = (emitted,) + tuple(result[1:])
            batch.requests.append(request)
            batch.replies.append(reply_crc(emitted))
            return result

        setattr(owner, attr, captured)

    def _break(self, emitted):
        if self.inject == "missing":
            return []
        port, frame = emitted[0]
        frame.data[-1] ^= 0xFF
        return [(port, frame)] + list(emitted[1:])

    def verify(self, reference_send):
        """Replay every batch through *reference_send* (frame ->
        emitted list); returns the number of requests whose reply
        differs or is missing.  A regenerated frame that was never
        captured was dropped before the service (an ingress tail-drop)
        and is skipped."""
        failed = 0
        for batch in self.batches:
            requests, replies = batch.requests, batch.replies
            position = 0
            for frame in batch.factory():
                if position == len(requests):
                    break
                if zlib.crc32(frame.data) != requests[position]:
                    continue
                if reply_crc(reference_send(frame.copy())) != \
                        replies[position]:
                    failed += 1
                position += 1
            failed += len(requests) - position
        return failed


def reference_deployment(seed):
    """The cpu-backend twin every sim reply is checked against."""
    from repro.deploy import deploy
    reference = deploy("memcached").on("cpu").with_seed(seed).start()
    return reference, (lambda frame: reference.send(frame)[0])


def memcached_frame(index, body):
    """A request frame shaped like ``memaslap_mix``'s."""
    from repro.core.protocols.memcached import build_udp_frame_header
    from repro.core.protocols.udp import build_udp
    from repro.net.packet import Frame
    from repro.net.workloads import DEFAULT_MACS
    from repro.services.catalog import CLIENT_IP, SERVICE_IP
    dst_mac, src_mac = DEFAULT_MACS
    payload = build_udp_frame_header(index & 0xFFFF) + body
    return Frame(build_udp(dst_mac, src_mac, CLIENT_IP, SERVICE_IP,
                           32768 + index % 28000, 11211, payload),
                 src_port=0).pad()


def key_of(index):
    return b"k%05d" % index


def prefill_frames(keys, width, binary):
    from repro.core.protocols.memcached import build_ascii_set, \
        build_binary_set
    for index in range(keys):
        key = key_of(index)
        value = value_for(key, width)
        body = build_binary_set(key, value, opaque=index) if binary \
            else build_ascii_set(key, value)
        yield memcached_frame(index, body)


def percentile(ordered, fraction):
    """Linear interpolation between the order statistics of a sorted,
    non-empty list."""
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def call_row(requests, wall_ns, latencies_ns):
    """``[requests, wall ns, samples, p50 ns, p99 ns]`` of one timed
    call (every call times at least 1000 requests, so its p99 has ten
    samples beyond it)."""
    ordered = sorted(latencies_ns)
    return [requests, wall_ns, len(ordered), percentile(ordered, 0.50),
            percentile(ordered, 0.99)]


def timed_calls(seconds, call, recorder):
    """Run ``call(index)`` back to back for *seconds*; returns each
    call's wall time in ns.  With a *recorder*, even calls run untraced
    and odd calls traced, in pairs on the same inputs, so both halves
    see the same stretches of a host whose speed drifts."""
    walls = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    step = 1 if recorder is None else 2
    while len(walls) < step or len(walls) % step or clock() < deadline:
        if recorder is not None:
            recorder.active = len(walls) % 2 == 1
        start = clock()
        call(len(walls) // step)
        walls.append(clock() - start)
    if recorder is not None:
        recorder.active = False
    return walls


def split_calls(rows, recorder):
    """The ``calls`` (untraced) and ``traced_calls`` of a slice."""
    if recorder is None:
        return {"calls": rows}
    return {"calls": rows[0::2], "traced_calls": rows[1::2]}


# -- kernel-closed ------------------------------------------------------------

def slice_kernel_closed(args, recorder):
    from repro.deploy import deploy
    dep = deploy("memcached").on("fpga").with_opt(2) \
        .with_seed(args.seed).start()
    capture = Capture(args.inject)
    capture.install(dep, "send")
    spec = dep.spec
    workload = spec.workload

    def frames(count, seed):
        return lambda: workload(count, seed, protocol="binary")

    capture.begin(lambda: prefill_frames(KERNEL_KEYS, KERNEL_VALUE, True))
    for frame in prefill_frames(KERNEL_KEYS, KERNEL_VALUE, True):
        dep.send(frame)
    warm = chunk_seed(args.seed, -1)
    capture.begin(frames(WARMUP_REQUESTS, warm))
    dep.run(count=WARMUP_REQUESTS, seed=warm, protocol="binary")
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9

    target = dep.backend.target
    service = target.service
    model = target.pipeline.cycle_model
    if recorder is not None:
        recorder.wrap(dep, "run", "deploy")
        recorder.wrap(dep, "send", "deploy")
        recorder.wrap(dep.backend, "send", "targets")
        recorder.wrap(service, "process_counting", "services")
        recorder.wrap(model, "cycles", "kernel")
        recorder.wrap(model, "cycles_batch", "kernel")
        spec.workload = lambda *a, **k: recorder.iterate(
            workload(*a, **k), "workloads")
    before = _counters(dep)
    latency_mark = len(dep.metrics.latency.samples_ns)
    timed = []

    def call(index):
        seed = chunk_seed(args.seed, index)
        timed.append(capture.begin(frames(KERNEL_CHUNK, seed)))
        dep.run(count=KERNEL_CHUNK, seed=seed, protocol="binary")

    capture.timing = True
    walls = timed_calls(args.seconds, call, recorder)
    capture.timing = False
    rss = peak_rss_mb()
    after = _counters(dep)
    modeled = sorted(dep.metrics.latency.samples_ns[latency_mark:])
    get_frame, set_frame = mix_frames(KERNEL_VALUE, KERNEL_KEYS, "binary")
    result = {
        "setup_s": [setup_s],
        "peak_rss_mb": [rss],
        "modeled": {
            "kernel.avg_cycles": _ratio(after["cycles"] - before["cycles"],
                                        after["kernel"] - before["kernel"]),
            "p50_us": percentile(modeled, 0.50) / 1e3,
            "p99_us": percentile(modeled, 0.99) / 1e3,
            "max_qps": dep.max_qps(get_frame, set_frame, 0.1),
        },
    }
    result.update(split_calls(
        [call_row(KERNEL_CHUNK, wall, batch.latencies_ns)
         for wall, batch in zip(walls, timed)], recorder))
    if recorder is not None:
        result["layers"] = _sim_layers(
            recorder, result["traced_calls"], before, after)
    reference, send = reference_deployment(args.seed)
    failed = capture.verify(send)
    reference.stop()
    dep.stop()
    result.update(attempted=capture.captured, failed=failed, checks=[])
    if failed:
        result["checks"].append(
            "%d reply(ies) differ from the cpu-backend replay" % failed)
    return result


def _counters(dep):
    """Layer counters read before and after the timed window."""
    target = dep.backend.target
    model = target.pipeline.cycle_model
    service = target.service
    return {
        "cycles": model.total_cycles if model is not None else 0,
        "kernel": model.requests if model is not None else 0,
        "hits": service.hits,
        "misses": service.misses,
        "ingress_drops": target.pipeline.frames_dropped_ingress,
    }


def mix_frames(value_bytes, key_space, protocol):
    """One GET and one SET of a memaslap mix, for the modeled
    ``Deployment.max_qps`` of that mix."""
    from repro.net.workloads import memaslap_mix
    from repro.services.catalog import CLIENT_IP, SERVICE_IP
    return tuple(next(iter(memaslap_mix(
        SERVICE_IP, CLIENT_IP, count=1, get_ratio=ratio,
        value_bytes=value_bytes, protocol=protocol, key_space=key_space,
        seed=1))) for ratio in (1.0, 0.0))


# -- openloop-bulk ------------------------------------------------------------

def slice_openloop_bulk(args, recorder):
    from repro.deploy import deploy
    from repro.net.workloads import memaslap_mix
    from repro.services.catalog import CLIENT_IP, SERVICE_IP
    dep = deploy("memcached").on("fpga").with_seed(args.seed) \
        .with_arrivals("poisson", qps=BULK_QPS).start()
    capture = Capture(args.inject)
    capture.install(dep, "send")
    capture.install(dep.backend, "open_loop_profile")
    counts = {}

    def synthesise(seed):
        def frames(count):
            counts[seed] = count
            stream = memaslap_mix(
                SERVICE_IP, CLIENT_IP, count=count,
                get_ratio=BULK_GET_RATIO, value_bytes=BULK_VALUE,
                protocol="ascii", key_space=BULK_KEYS, seed=seed)
            if recorder is not None:
                return recorder.iterate(stream, "workloads")
            return stream
        return frames

    def regenerate(seed):
        return lambda: memaslap_mix(
            SERVICE_IP, CLIENT_IP, count=counts[seed],
            get_ratio=BULK_GET_RATIO, value_bytes=BULK_VALUE,
            protocol="ascii", key_space=BULK_KEYS, seed=seed)

    capture.begin(lambda: prefill_frames(BULK_KEYS, BULK_VALUE, False))
    for frame in prefill_frames(BULK_KEYS, BULK_VALUE, False):
        dep.send(frame)
    warm = chunk_seed(args.seed, -1)
    capture.begin(regenerate(warm))
    dep.run_open_loop(duration_ms=BULK_WARMUP_MS, frames=synthesise(warm),
                      seed=warm)
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9

    if recorder is not None:
        recorder.wrap(dep, "run_open_loop", "openloop")
        recorder.wrap(dep.backend, "open_loop_profile", "targets")
        recorder.wrap(dep.backend.target.service, "process_counting",
                      "services")
    before = _counters(dep)
    reports = []
    timed = []

    def call(index):
        seed = chunk_seed(args.seed, index)
        timed.append(capture.begin(regenerate(seed)))
        reports.append(dep.run_open_loop(
            duration_ms=BULK_CHUNK_MS, frames=synthesise(seed), seed=seed))

    capture.timing = True
    walls = timed_calls(args.seconds, call, recorder)
    capture.timing = False
    rss = peak_rss_mb()
    after = _counters(dep)
    checks = []
    violations = 0
    for index, report in enumerate(reports):
        if report.offered != report.admitted + report.queue_drops or \
                report.completed != report.replies + \
                report.service_drops or \
                report.completed != report.admitted:
            violations += 1
            checks.append("call %d breaks conservation: %r"
                          % (index, report.snapshot()))
    latencies = sorted(lat for report in reports
                       for lat in report.latencies_ns)
    get_frame, set_frame = mix_frames(BULK_VALUE, BULK_KEYS, "ascii")
    result = {
        "setup_s": [setup_s],
        "peak_rss_mb": [rss],
        "reports": [_report_digest(report) for report in reports],
        "modeled": {
            "p50_us": percentile(latencies, 0.50) / 1e3,
            "p99_us": percentile(latencies, 0.99) / 1e3,
            "max_qps": dep.max_qps(get_frame, set_frame,
                                   1 - BULK_GET_RATIO),
            "offered_qps": BULK_QPS,
        },
    }
    result.update(split_calls(
        [call_row(report.offered, wall, batch.latencies_ns)
         for report, wall, batch in zip(reports, walls, timed)], recorder))
    if recorder is not None:
        layers = _sim_layers(recorder, result["traced_calls"], before,
                             after)
        arrivals = sum(report.offered for report in reports)
        layers.update({
            "openloop.queue_drops": sum(r.queue_drops for r in reports),
            "openloop.max_queue_depth": max(r.max_queue_depth()
                                            for r in reports),
            "openloop.mean_queue_depth": _ratio(
                sum(r.mean_queue_depth() * r.offered for r in reports),
                arrivals),
        })
        result["layers"] = layers
    reference, send = reference_deployment(args.seed)
    failed = capture.verify(send)
    reference.stop()
    dep.stop()
    if failed:
        checks.append("%d reply(ies) differ from the cpu-backend replay"
                      % failed)
    result.update(attempted=capture.captured, failed=failed + violations,
                  checks=checks)
    return result


def _report_digest(report):
    """The virtual-time outcome of one call, compared across slices."""
    snapshot = report.snapshot()
    snapshot["latency_crc"] = zlib.crc32(
        array.array("d", report.latencies_ns).tobytes())
    return snapshot


# -- serve-udp ----------------------------------------------------------------

class ServerProcess:
    """A served deployment in its own process (``python -m
    repro.deploy --serve``), stopped with SIGINT like a user would."""

    def __init__(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        self.lines = []
        self.rusage = None
        self.returncode = None

    def wait_serving(self, timeout_s):
        """Read output up to the ``serving ... on host:port`` line."""
        watchdog = threading.Timer(timeout_s, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                text = line.decode("utf-8", "replace")
                self.lines.append(text)
                match = SERVING_LINE.match(text)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            watchdog.cancel()
        raise RuntimeError("server did not come up:\n%s"
                           % "".join(self.lines))

    def stop(self, timeout_s=30.0):
        """SIGINT, collect the printed report, reap with rusage (the
        process is reaped here only, so ``wait4`` sees its peak RSS)."""
        if self.returncode is not None:
            return
        try:
            os.kill(self.proc.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
        watchdog = threading.Timer(timeout_s, self.proc.kill)
        watchdog.start()
        try:
            rest = self.proc.stdout.read()
        finally:
            watchdog.cancel()
        self.lines += rest.decode("utf-8", "replace").splitlines(True)
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.proc.stdout.close()

    def report(self):
        """The ``name value`` rows of the server's end-of-run report."""
        rows = {}
        for line in self.lines:
            match = REPORT_ROW.match(line.strip())
            if match:
                rows[match.group(1)] = match.group(2)
        return rows


def slice_serve_udp(args, recorder):
    """Fixed-work sessions, each against a fresh server, until the
    slice's time is used.  Every loadgen SET stores a new key, so a
    server slows down as it serves; equal sessions keep every
    measurement on the same store sizes."""
    from repro.serve.spec import resolve_binding
    from repro.services.catalog import registry
    binding = resolve_binding(registry()["memcached"], "udp")
    if args.inject:
        binding = _BrokenBinding(binding, args.inject, INJECT_AT)
    sessions = []
    measured_ns = 0
    step = 1 if recorder is None else 2
    while len(sessions) < step or len(sessions) % step or \
            measured_ns < args.seconds * 1e9:
        traced = recorder is not None and len(sessions) % 2 == 1
        session = _serve_session(args, binding, traced, len(sessions))
        sessions.append(session)
        measured_ns += session["window_ns"]
    untraced = sessions[0::step]
    out = {
        "setup_s": [s["setup_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        "calls": [c for s in untraced for c in s["calls"]],
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "checks": [c for s in sessions for c in s["checks"]],
        "modeled": {},
    }
    if recorder is not None:
        traced = sessions[1::2]
        out["traced_calls"] = [c for s in traced for c in s["calls"]]
        out["layers"] = _serve_layers(traced)
    return out


def _serve_session(args, binding, traced, number):
    """Serve (under ``traced_server.py`` when *traced*), prefill, warm
    up, run SERVE_SESSION_ROUNDS timed loadgen rounds, stop.
    ``setup_s`` runs from the server's launch to the end of the
    warm-up."""
    from repro.serve.loadgen import LoadGenConfig, run_loadgen
    cli = ["--service", "memcached", "--backend", "cpu",
           "--seed", str(args.seed), "--serve", "127.0.0.1:0"]
    spans_path = None
    if traced:
        spans_path = out_dir() / ("server-spans-%d.json" % os.getpid())
        argv = [sys.executable, "-u", str(HERE / "traced_server.py"),
                str(spans_path)] + cli
    else:
        argv = [sys.executable, "-u", "-m", "repro.deploy"] + cli
    launched = time.monotonic_ns()
    server = ServerProcess(argv)
    try:
        host, port = server.wait_serving(SERVE_START_TIMEOUT_S)
        failed = _serve_prefill(host, port)

        def rounds(count, seed, into):
            config = LoadGenConfig(
                "memcached", host, port, transport="udp", mode="closed",
                requests=count, seed=seed, timeout_s=SERVE_TIMEOUT_S)
            into.append(run_loadgen(config, binding=binding))

        warmup = []
        rounds(SERVE_WARMUP, "%d/warmup" % args.seed, warmup)
        setup_s = (time.monotonic_ns() - launched) / 1e9
        results = []
        if args.inject and number == 0:
            binding.armed = True
        window_start = time.monotonic_ns()
        for index in range(SERVE_SESSION_ROUNDS):
            rounds(SERVE_ROUND, "%d/%d" % (args.seed, index), results)
        window_end = time.monotonic_ns()
    finally:
        server.stop()
    report = server.report()
    attempted = SERVE_KEYS
    checks = []
    for result in warmup + results:
        attempted += result.sent
        bad = result.verify_failures + result.lost + \
            result.connect_failures
        failed += bad
        if bad:
            checks.append("loadgen: %d verify failure(s), %d lost, %d "
                          "connect failure(s)"
                          % (result.verify_failures, result.lost,
                             result.connect_failures))
    if server.returncode != 0:
        checks.append("server exited with %r" % server.returncode)
    for key in ("queue_drops", "service_drops"):
        if report.get(key) != "0":
            checks.append("server report: %s=%s" % (key, report.get(key)))
    session = {
        "setup_s": setup_s,
        "peak_rss_mb": server.rusage.ru_maxrss / 1024.0,
        "calls": [call_row(result.ok, result.active_ns,
                           result.latencies_ns) for result in results],
        "window_ns": window_end - window_start,
        "replies": sum(result.ok for result in results),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
    }
    if spans_path is not None:
        with open(spans_path) as handle:
            dump = json.load(handle)
        os.unlink(spans_path)
        session["self_ns"] = layer_self_ns(dump["spans"], window_start,
                                           window_end)
        session["server"] = dump["report"]
        _write_spans(dump["spans"])
    return session


class _BrokenBinding:
    """A loadgen binding that breaks one probe once armed: ``corrupt``
    expects other bytes than the server's reply, ``missing`` sends a
    payload the server drops without replying."""

    def __init__(self, binding, mode, at):
        self._binding = binding
        self.mode = mode
        self.at = at
        self.armed = False
        self.transport = binding.transport

    def __getattr__(self, name):
        return getattr(self._binding, name)

    def probe(self, seed, seq):
        payload, expected = self._binding.probe(seed, seq)
        if self.armed and seq == self.at:
            self.armed = False
            if self.mode == "missing":
                return b"?", expected
            return payload, expected[:-1] + bytes((expected[-1] ^ 0xFF,))
        return payload, expected


def _serve_prefill(host, port):
    """SET every prefill key over the socket, one at a time; returns
    the number of sets that were not answered ``STORED``."""
    from repro.core.protocols.memcached import build_ascii_set, \
        build_udp_frame_header
    failed = 0
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.connect((host, port))
        sock.settimeout(SERVE_TIMEOUT_S)
        for index in range(SERVE_KEYS):
            key = key_of(index)
            header = build_udp_frame_header(index & 0xFFFF)
            sock.send(bytes(header + build_ascii_set(
                key, value_for(key, KERNEL_VALUE))))
            try:
                reply = sock.recv(65535)
            except socket.timeout:
                reply = None
            if reply != bytes(header) + b"STORED\r\n":
                failed += 1
    return failed


# -- per-layer numbers --------------------------------------------------------

SIM_LAYERS = ("workloads", "services", "kernel", "targets", "deploy",
              "openloop")
SERVE_LAYERS = ("serve", "deploy", "targets", "services")
#: Every per-layer metric a traced slice reports; a layer a workload
#: does not run reads 0 (``trace.overhead`` is added by run.py).
LAYER_METRICS = (
    "workloads.ns_per_frame", "workloads.share",
    "services.ns_per_req", "services.share", "services.hit_share",
    "kernel.ns_per_req", "kernel.share", "kernel.avg_cycles",
    "targets.ns_per_req", "targets.share", "targets.ingress_drops",
    "deploy.ns_per_req", "deploy.share",
    "openloop.ns_per_req", "openloop.share", "openloop.queue_drops",
    "openloop.max_queue_depth", "openloop.mean_queue_depth",
    "serve.ns_per_req", "serve.share", "serve.busy_share",
    "serve.queue_drops", "serve.service_drops", "serve.max_queue_depth",
    "unattributed.share",
)


def _sim_layers(recorder, traced_calls, before, after):
    """Per-layer self time over the traced calls of a sim slice (one
    frame is synthesised per request)."""
    requests = sum(row[0] for row in traced_calls)
    window_ns = sum(row[1] for row in traced_calls)
    self_ns = layer_self_ns(recorder.spans)
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    for layer in SIM_LAYERS:
        own = self_ns.get(layer, 0)
        key = "ns_per_frame" if layer == "workloads" else "ns_per_req"
        layers["%s.%s" % (layer, key)] = _ratio(own, requests)
        layers["%s.share" % layer] = _ratio(own, window_ns)
    lookups = (after["hits"] - before["hits"]) + \
        (after["misses"] - before["misses"])
    layers["services.hit_share"] = _ratio(after["hits"] - before["hits"],
                                          lookups)
    layers["kernel.avg_cycles"] = _ratio(after["cycles"] - before["cycles"],
                                         after["kernel"] - before["kernel"])
    layers["targets.ingress_drops"] = \
        after["ingress_drops"] - before["ingress_drops"]
    layers["unattributed.share"] = max(
        0.0, 1.0 - _ratio(sum(self_ns.values()), window_ns))
    _write_spans(recorder.spans)
    return layers


def _serve_layers(sessions):
    """Per-layer self time inside the served processes over the loadgen
    windows, plus the servers' own queue/busy counters."""
    window_ns = sum(s["window_ns"] for s in sessions)
    replies = sum(s["replies"] for s in sessions)
    self_ns = {}
    for session in sessions:
        for layer, own in session["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + own
    layers = dict.fromkeys(LAYER_METRICS, 0.0)
    for layer in SERVE_LAYERS:
        own = self_ns.get(layer, 0)
        layers["%s.ns_per_req" % layer] = _ratio(own, replies)
        layers["%s.share" % layer] = _ratio(own, window_ns)

    def total(key):
        return sum(s["server"][key] for s in sessions)

    layers.update({
        "services.hit_share": _ratio(total("hits"),
                                     total("hits") + total("misses")),
        "serve.busy_share": _ratio(total("busy_ns"), total("duration_ns")),
        "serve.queue_drops": total("queue_drops"),
        "serve.service_drops": total("service_drops"),
        "serve.max_queue_depth": max(s["server"]["max_queue_depth"]
                                     for s in sessions),
        "unattributed.share": max(
            0.0, 1.0 - _ratio(sum(self_ns.values()), window_ns)),
    })
    return layers


def _write_spans(spans):
    """Keep the traced slice's spans for inspection."""
    with open(out_dir() / "spans.json", "w") as handle:
        json.dump(spans, handle)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


SLICES = {
    "kernel-closed": slice_kernel_closed,
    "openloop-bulk": slice_openloop_bulk,
    "serve-udp": slice_serve_udp,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLICES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--inject", choices=["corrupt", "missing"])
    args = parser.parse_args(argv)
    recorder = None
    if args.traced:
        recorder = SpanRecorder()
        recorder.active = False        # on for the traced calls only
    result = SLICES[args.workload](args, recorder)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
