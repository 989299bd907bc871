"""Launch ``repro serve`` in this process, optionally under the ledger.

Usage (from the checkout root)::

    python3 perfbench/serve_launcher.py [--ledger OUT.json --spans OUT.jsonl] \
        -- serve --port 0 ...

Everything after ``--`` is handed to the ``repro`` command line unchanged,
so the server is exactly what ``python -m repro serve`` runs.  With
``--ledger`` the per-layer wrappers are installed before the server is
built, ``SIGUSR1`` opens the measured window (dropping spans recorded so
far, e.g. the pre-fill) and ``SIGUSR2`` closes it and writes the ledger
report to ``OUT.json`` and the window's spans to ``OUT.jsonl``.
``SIGTERM`` drains and stops the server as usual.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import harness


def main() -> int:
    harness.repo_root()
    parser = argparse.ArgumentParser()
    parser.add_argument("--ledger", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    if args.ledger:
        from ledger import Ledger

        ledger = Ledger().install()
        window = {"start": time.perf_counter()}

        def begin(signum, frame):
            ledger.spans.clear()
            ledger.counts.clear()
            window["start"] = time.perf_counter()

        def end(signum, frame):
            wall = time.perf_counter() - window["start"]
            # The overhead needs the untraced server; the client computes it.
            report = ledger.report(wall, 0.0)
            if args.spans:
                ledger.write(args.spans)
            with open(args.ledger, "w") as handle:
                json.dump(report, handle)

        signal.signal(signal.SIGUSR1, begin)
        signal.signal(signal.SIGUSR2, end)

    from repro.cli import main as repro_main

    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
