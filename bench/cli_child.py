"""Run one qprob command under the tracer; the traced rounds of the cli workload start this.

Usage: python3 -X importtime bench/cli_child.py SUMMARY.json QPROB-ARGUMENTS...

The command's exit code is passed through. The tracer's counters and the time
spent in qprob.cli.main are written to SUMMARY.json.
"""

import json
import sys
import time


def main() -> int:
    summary_path = sys.argv[1]
    import qprob.cli

    import tracer

    spans = tracer.Tracer()
    spans.install()
    start = time.perf_counter()
    try:
        return qprob.cli.main(sys.argv[2:])
    finally:
        handler_s = time.perf_counter() - start
        spans.remove()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(dict(spans.summary(), handler_s=handler_s), fh)


if __name__ == "__main__":
    sys.exit(main())
