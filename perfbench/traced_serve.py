"""``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python traced_serve.py SPANS_OUT <repro serve arguments...>``.
Installs :func:`perfbench.spans.install` in this process, runs the same
``repro serve`` entry point as an untraced server, and writes the recorded
spans to ``SPANS_OUT`` when the server exits (SIGINT).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import SpanRecorder, install  # noqa: E402


def main(argv: list) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
