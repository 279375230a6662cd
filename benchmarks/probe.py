"""Set-up probe: a fresh interpreter imports conjrisk and runs one command.

Usage: ``python3 benchmarks/probe.py <src dir> <conjrisk argv...>``. Exits
with the command's status.
"""

import sys

sys.path.insert(0, sys.argv[1])

import conjrisk  # noqa: E402,F401  (the import a CLI user pays on every call)
from conjrisk.cli import run_command  # noqa: E402

sys.exit(run_command(sys.argv[2:]))
