#!/usr/bin/env python
"""Where does set-up's import time go?  ``python tools/import_profile.py [module]``

Runs ``python -X importtime -c "import <module>"`` (default
``repro.fl.simulation``) against this checkout and prints the ten
largest cumulative entries outside numpy, so a set-up regression is
one command to locate.
"""

import os
import subprocess
import sys
from pathlib import Path


def main(module: str = "repro.fl.simulation") -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    trace = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    rows = []
    for line in trace.splitlines():  # "import time: self [us] | cumulative | imported package"
        parts = [part.strip() for part in line.partition("import time:")[2].split("|")]
        if len(parts) == 3 and parts[1].isdigit() and not parts[2].startswith("numpy"):
            rows.append((int(parts[1]), parts[2]))
    print(f"cumulative ms  imported by `import {module}`")
    for micros, name in sorted(rows, reverse=True)[:10]:
        print(f"{micros / 1000:13.1f}  {name}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
