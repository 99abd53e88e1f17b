"""Run one ``curralg`` CLI invocation under the span tracer.

Usage: python3 perfbench/traced_cli.py OUT_PREFIX CLI_ARG...

The report goes to stdout exactly as ``python3 -m curralg.cli CLI_ARG...``
would print it, so the caller can hash it against the untraced run.  The
spans go to ``OUT_PREFIX.spans`` (with ``.spans.json``) and the per-name
summary to ``OUT_PREFIX.summary.json``.  ``curralg`` must be importable
(the benchmark puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    prefix, cli_args = argv[0], argv[1:]
    from curralg import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.restore()
    sys.stdout.flush()
    tracer.write(prefix + ".spans")
    with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": len(tracer.span_end), "layers": tracer.summary()}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
