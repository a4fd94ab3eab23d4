"""Time a fresh import of weylnil and a cold CLI process.

Run from the repository root, on the tree whose ``src`` is first on the
path:

    PYTHONPATH=src python3 scripts/import_cases.py --repeat 15

Three cases:

* ``reimport``: drop ``weylnil`` and its submodules from ``sys.modules``
  and import ``weylnil.cli`` again, as ``load_weylnil`` in
  ``perfbench/run.py`` does before each benchmark set-up; the median of
  ``--repeat`` imports, after one untimed import that loads the standard
  library modules.  Whether an import compiles the source or reads cached
  bytecode follows the environment (``PYTHONDONTWRITEBYTECODE`` and any
  ``__pycache__`` already written);
* ``cold_cli``: the median wall time of ``--repeat`` subprocesses
  ``python -m weylnil.cli decide "D^2 - x"``, interpreter start-up
  included; each must exit 0 with the Airy verdict;
* ``modules``: from one subprocess, whether ``dataclasses`` and ``inspect``
  are in ``sys.modules`` after ``import weylnil.cli``.

With ``--json`` the last line of standard output is the table as one JSON
object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time

CLI = [sys.executable, "-m", "weylnil.cli", "decide", "D^2 - x"]
# json is imported after the check, so only weylnil.cli's imports are seen
PROBE = (
    "import sys, weylnil.cli; loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]; "
    "import json; print(json.dumps(loaded))"
)


def reimport_s() -> float:
    for name in [n for n in sys.modules if n == "weylnil" or n.startswith("weylnil.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("weylnil.cli")
    return time.perf_counter() - start


def cold_cli_s() -> float:
    start = time.perf_counter()
    done = subprocess.run(CLI, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or "verdict: strictly-nilpotent" not in done.stdout.splitlines():
        raise SystemExit(f"cold CLI run failed with exit {done.returncode}: {done.stderr.strip()}")
    return elapsed


def loaded_modules() -> list:
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="imports and processes per case; the median is reported")
    parser.add_argument("--json", action="store_true", help="end with the table as one JSON line")
    args = parser.parse_args(argv)
    repeat = max(args.repeat, 1)
    reimport_s()
    reimport = statistics.median(reimport_s() for _ in range(repeat))
    cold = statistics.median(cold_cli_s() for _ in range(repeat))
    loaded = loaded_modules()
    table = {"reimport_s": reimport, "cold_cli_s": cold, "repeat": repeat, "loads": loaded}
    print(f"reimport   {reimport * 1e3:8.2f} ms  median of {repeat}")
    print(f"cold_cli   {cold * 1e3:8.2f} ms  median of {repeat}")
    print(f"modules    import weylnil.cli loads: {', '.join(loaded) or 'neither dataclasses nor inspect'}")
    if args.json:
        print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
