"""Run ``repro-faascache serve`` with the benchmark's span tracing.

Usage: python3 perfbench/serve_traced.py SPANS.npz [serve options]

Wraps the engine's layers in this process, serves until interrupted,
then writes the recorded spans to SPANS.npz.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

from repro import cli  # noqa: E402

from spans import SpanRecorder  # noqa: E402

#: The layers a live admission passes through.
SERVER_LAYERS = ("scheduler", "policies", "pool", "container", "metrics", "service")


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    recorder.install(SERVER_LAYERS)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        recorder.uninstall()
        recorder.save(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
