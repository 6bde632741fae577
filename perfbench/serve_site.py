"""Run ``thermoledger serve`` for the file_exchange workload.

Usage: python3 perfbench/serve_site.py DATA_DIR [TRACE_OUT]

Equivalent to ``python -m thermoledger.cli --data-dir DATA_DIR serve
--host 127.0.0.1 --port 0``. With TRACE_OUT, the server-side store reads
and node encodings are timed, and their totals are written to TRACE_OUT
as JSON when the server stops (on SIGINT).
"""

import json
import os
import signal
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from thermoledger import cli  # noqa: E402

from spans import Tracer, install_server  # noqa: E402


def main() -> None:
    data_dir = sys.argv[1]
    trace_out = sys.argv[2] if len(sys.argv) > 2 else None
    # The runner stops the server with SIGINT. A process started in the
    # background of a non-interactive shell inherits SIGINT ignored, and
    # Python then installs no KeyboardInterrupt handler, so restore it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    if trace_out:
        install_server(tracer)
        tracer.enabled = True
    try:
        cli.main(["--data-dir", data_dir, "serve", "--host", "127.0.0.1", "--port", "0"], prog_name="thermoledger")
    except KeyboardInterrupt:
        pass
    finally:
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as fp:
                json.dump(tracer.totals(), fp)


if __name__ == "__main__":
    main()
