"""``python -m glv.cli`` with the benchmark's tracer installed.

Traced cli-corpus rounds run this script in place of ``-m glv.cli``.  The
tracer exists before ``glv.cli`` is imported, so the import is one span
(``cli.import``); the verb runs inside a ``cli.verb`` span.  The aggregate
and the spans go to the JSON file named by ``GLVBENCH_TRACE_OUT``.  Exit
status, output and tracebacks are those of the CLI itself.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    tracer.request = os.environ.get("GLVBENCH_REQUEST")
    with tracer.region("cli.import"):
        import glv.cli
    tracer.install()
    try:
        with tracer.region("cli.verb"):
            glv.cli.main(sys.argv[1:], prog_name="glv")
    finally:
        tracer.uninstall()
        with open(os.environ["GLVBENCH_TRACE_OUT"], "w") as fh:
            json.dump({"aggregate": tracer.aggregate(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main()
