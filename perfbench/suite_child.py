"""``python -m repro.experiments`` under the layer tracer.

Usage: ``python3 perfbench/suite_child.py <summary.json> <cli args...>``
with ``src/`` on ``PYTHONPATH``.  Installs :mod:`tracer` (its import of
every ``repro`` module is the ``repro.import`` span), runs the CLI as
``__main__`` exactly as ``-m`` would, and writes the span summary to
``<summary.json>``.  Exits with the CLI's exit code.
"""

import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    dump, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("repro.import", absorb=True):
        install(tracer)
    sys.argv = ["python -m repro.experiments"] + cli_args
    code = 0
    try:
        runpy.run_module("repro.experiments", run_name="__main__",
                         alter_sys=True)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        tracer.uninstall()
        Path(dump).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
