"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 -I perfbench/probe.py SRC_DIR HAMALG_ARGV...

Imports hamalg from SRC_DIR, writes one report through ``hamalg.cli.main``
and prints the system-wide monotonic clock right after the report is
written, so the parent can time interpreter start-up, imports, schema
loading and the first report.  Exits with the report's status.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from hamalg.cli import main  # noqa: E402

status = main(sys.argv[2:])
print(repr(time.monotonic()))
sys.exit(status)
