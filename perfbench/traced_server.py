"""The ``python -m repro.deploy`` serving CLI with layer spans.

    python3 perfbench/traced_server.py OUT.json --serve 127.0.0.1:0 ...

Wraps the served path's public layer entry points (class-level, before
the CLI builds anything), runs the unchanged CLI ``main()`` with the
remaining arguments, and once it returns (SIGINT stops the server)
writes the spans plus the server's own counters to ``OUT.json``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import SpanRecorder  # noqa: E402


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    from repro.deploy import __main__ as cli
    from repro.deploy.backends import CpuBackend
    from repro.deploy.builder import Deployment
    from repro.serve.server import SocketServer
    from repro.services.memcached import MemcachedService

    recorder = SpanRecorder()
    recorder.wrap(SocketServer, "_udp_ready", "serve")
    recorder.wrap(SocketServer, "_drain", "serve")
    recorder.wrap(Deployment, "send_batch", "deploy")
    recorder.wrap(Deployment, "send", "deploy")
    recorder.wrap(CpuBackend, "send_batch", "targets")
    recorder.wrap(CpuBackend, "send", "targets")
    recorder.wrap(MemcachedService, "process", "services")

    served = []
    serve = Deployment.serve

    def keep_server(self, *args, **kwargs):
        # The CLI stops the deployment before returning, so keep the
        # service (for its hit/miss counters) while it is live.
        served.append((self, self.backend.target.service))
        return serve(self, *args, **kwargs)

    Deployment.serve = keep_server
    code = cli.main(cli_args)
    report = {}
    if served and served[0][0].server is not None:
        dep, service = served[0]
        server_report = dep.server.report
        report = {
            "busy_ns": sum(s.busy_ns for s in server_report.servers),
            "duration_ns": server_report.duration_ns,
            "queue_drops": server_report.queue_drops,
            "service_drops": server_report.service_drops,
            "max_queue_depth": server_report.max_queue_depth(),
            "hits": service.hits,
            "misses": service.misses,
        }
    with open(out_path, "w") as handle:
        json.dump({"spans": recorder.spans, "report": report}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
