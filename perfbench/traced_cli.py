"""Run one ncfock CLI command with the span tracer installed.

    python3 perfbench/traced_cli.py SPANS.json <ncfock arguments...>

Writes the spans of the command to SPANS.json and exits with the CLI's
exit code.  The cli workload uses it in place of ``python -m ncfock`` in
traced runs only.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def main():
    out = Path(sys.argv[1])
    tracer = spans.Tracer()
    tracer.install()
    from ncfock import cli

    tracer.round = 0
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.round = None
        out.write_text(json.dumps({"spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
