"""Start ``repro serve`` with the benchmark's tracing optionally installed.

    python3 perfbench/serve_launcher.py TRACE_DIR|- serve --port 0 ...

Everything after the first argument goes to the program's CLI.  With a
trace directory, the layer wrappers are installed before the server
starts, and the span summary is written there once the server has
drained (SIGTERM) and ``main`` has returned.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))


def main() -> int:
    from repro.cli import main as repro_main

    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if trace_dir != "-":
        import layers
        from spans import Tracer

        tracer = Tracer(Path(trace_dir))
        layers.install(tracer)
    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
