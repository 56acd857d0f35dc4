"""Run one aggdiff CLI command in this process and report its timings.

usage: python3 perfbench/child.py REPORT.json [--trace] -- <aggdiff arguments>

The command runs through ``aggdiff.cli.main`` with ``src/`` of the
checkout on the import path. A one-shot hook on ``solver.advance`` notes
the clock at the first step and then puts the original function back, so
it costs nothing per step. With ``--trace`` every layer boundary is
patched as described in ``layers.py``. The report holds
``time.perf_counter`` readings, which share CLOCK_MONOTONIC with the
launching process on Linux.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = Path(own[0])
    traced = "--trace" in own[1:]
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

    from aggdiff import cli, solver

    instrumentation = None
    if traced:
        from layers import Instrumentation
        from tracer import Tracer

        instrumentation = Instrumentation(Tracer())
        instrumentation.install()

    first_step = []
    original_advance = solver.advance

    def one_shot(*args, **kwargs):
        first_step.append(perf_counter())
        solver.advance = original_advance
        return original_advance(*args, **kwargs)

    solver.advance = one_shot
    code = cli.main(cli_args)
    end = perf_counter()
    report = {"exit": code, "first_step_at": first_step[0] if first_step else None, "end_at": end}
    if instrumentation is not None:
        report["layers"] = instrumentation.metrics()
        report["root_s"] = instrumentation.tracer.root_seconds()
        instrumentation.tracer.write(report_path.with_suffix(".spans.json"))
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
