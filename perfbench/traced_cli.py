"""Run one rformant CLI command with layer tracing, in its own process.

    python traced_cli.py SPANS_JSON CLI_ARGS...

Installs the wrappers from ``spans.TARGETS``, runs ``rformant.cli.main``
on the remaining arguments, restores the wrapped attributes, writes the
spans (and any wrapped names missing from this version of the program)
to SPANS_JSON, and exits with the CLI's return code. ``rformant`` is
imported from whatever ``PYTHONPATH`` names, as for the untraced CLI.
"""

import json
import sys
from pathlib import Path

from spans import Tracer


def main(argv) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    import rformant.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = rformant.cli.main(cli_args)
    finally:
        tracer.restore()
    out.write_text(json.dumps({"spans": tracer.spans, "absent": tracer.absent}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
