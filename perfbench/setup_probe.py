"""Set-up probe, run in a fresh interpreter: import entrodyn's CLI, then parse
and resolve each scenario document named on the command line.

Usage: python3 perfbench/setup_probe.py SRC_DIR [DOCUMENT ...]
The caller times the whole process; the probe itself measures nothing.
"""

import sys

sys.path.insert(0, sys.argv[1])

import entrodyn.cli  # noqa: E402,F401  (the import is the set-up being timed)
from entrodyn.scenario import parse_scenario, resolve_scenario  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        resolve_scenario(parse_scenario(handle.read()))
