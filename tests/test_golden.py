"""Golden digests of the benchmark workloads' inputs and outputs.

For each workload of ``perfbench/workloads.py`` and the seeds 1, 2 and 1009,
the inputs are the workload's ``trace_items()`` drawn from
``random.Random("<workload>:<seed>")``, as ``perfbench/run.py`` draws them,
and the outputs are ``run`` on each input: ``decide --json`` through
``cli.run`` for the two decide workloads, the result objects for the other
two.  A digest is the sha256 of the ``repr`` of each value, one per line.
Inputs and outputs are digested apart, so a change to the draws can be told
from a change to the program.  The workloads file is loaded from its path
and not changed.

A change that moves an output rewrites the file in the same commit, and
says which digests moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

import weylnil
import weylnil.cli  # noqa: F401  (the decide workloads call weylnil.cli.run)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
SEEDS = (1, 2, 1009)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", HERE.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def _digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode() + b"\n")
    return h.hexdigest()[:16]


def digests(name: str, seed: int) -> dict:
    workload = WORKLOADS[name](weylnil, random.Random(f"{name}:{seed}"))
    items = workload.trace_items()
    return {"inputs": _digest(items), "outputs": _digest(workload.run(item) for item in items)}


@pytest.mark.parametrize("name, seed", [(name, seed) for name in WORKLOADS for seed in SEEDS])
def test_workload_digests_match_the_golden_file(name, seed):
    golden = json.loads(GOLDEN.read_text())
    assert digests(name, seed) == golden[name][str(seed)]


if __name__ == "__main__":
    table = {name: {str(seed): digests(name, seed) for seed in SEEDS} for name in WORKLOADS}
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n")
