"""weylnil benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload decide_orbit --seed 1 --seconds 15 --trace 0

Workloads: decide_orbit, decide_reject, algebra_laws, constructions (see
``perfbench/WORKLOADS.md``).  One client in one thread runs a closed loop:
the next operation starts when the previous one has returned.  The package
is imported from ``src/`` of the checkout; nothing is installed.

With ``--trace 0`` the set-up (import, input generation, warm-up) runs eleven
times, on ten input draws from the seed, and its median is ``setup_s``.
Between the set-ups, operations run on the first set-up's inputs until
their summed time reaches ``--seconds``.  Each output is checked right
after its operation, outside the timed region.  Every time, the summed
operation time above included, is scaled to a reference machine speed
measured by ``SpeedGauge`` (below).
With ``--trace 1`` every input of a fixed number of blocks runs twice, plain
and with spans recorded around weylnil's public functions, so the work counts
repeat exactly for a seed and the tracing overhead is measured on the same
operations; the spans go to ``perfbench/out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Input draws of the set-up repetitions.  Draw 0 is the run's own inputs;
# the others are blocks of their own, so that the median set-up time is
# taken over several blocks and not set by one seed's heaviest draws.  The
# last repetition repeats draw 0 to check that the seed fixes the inputs.
SETUP_DRAWS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0)


class SpeedGauge:
    """The machine's speed, from a fixed routine timed between operations.

    The machine this benchmark was defined on moves its speed by up to 2x,
    in stretches from under a second to minutes: a fixed loop averaged over
    20 s windows still spread by 0.19 (quartile distance over median), so
    two runs of the same code differed by about as much as a 0.25 bound.
    The gauge runs ``burst`` after every ``EVERY_S`` of operation time,
    outside the timed region and with the garbage collector off.  Every time
    of the run is multiplied by ``scale``, ``REFERENCE_BURST_S`` over the
    mean burst time, and so reads as on a machine where one burst takes
    1 ms: a fast or slow stretch moves the bursts and the operations alike
    and cancels.  ``burst`` runs no weylnil code (Fraction products summed
    into a dict, like the product kernel), so a change to the program moves
    the scaled times and not the gauge.
    """

    EVERY_S = 0.02
    REFERENCE_BURST_S = 1e-3

    def __init__(self):
        rng = random.Random(7)
        self.terms = [
            ((rng.randint(0, 6), rng.randint(0, 6)), Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
            for _ in range(12)
        ]
        self.bursts = []
        self.total = 0.0
        self.owed = 0.0

    def burst(self):
        gc.disable()
        start = time.perf_counter()
        out = {}
        for (i1, j1), c1 in self.terms:
            for (i2, j2), c2 in self.terms:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        elapsed = time.perf_counter() - start
        gc.enable()
        self.bursts.append(elapsed)
        self.total += elapsed

    def after(self, elapsed):
        """Run one burst per ``EVERY_S`` of operation time."""
        self.owed += elapsed
        while self.owed >= self.EVERY_S:
            self.owed -= self.EVERY_S
            self.burst()

    def scale(self) -> float:
        if not self.bursts:  # no operation time yet
            self.burst()
        return self.REFERENCE_BURST_S * len(self.bursts) / self.total


def load_weylnil():
    """Import weylnil afresh, so every set-up repetition pays the import."""
    for name in [n for n in sys.modules if n == "weylnil" or n.startswith("weylnil.")]:
        del sys.modules[name]
    importlib.import_module("weylnil.cli")
    return sys.modules["weylnil"]


def set_up(workload_cls, seed, draw=0):
    """Import, draw the first input block, run and check the warm-up inputs."""
    started = time.perf_counter()
    wn = load_weylnil()
    rng = random.Random(f"{workload_cls.name}:{seed}" + (f":setup{draw}" if draw else ""))
    workload = workload_cls(wn, rng)
    warm = [(item, call(workload, item)) for item in workload.warm_up_items()]
    return time.perf_counter() - started, workload, warm


def call(workload, item):
    try:
        return workload.run(item)
    except Exception as exc:  # a raising operation is a failed operation
        return exc


def correct(workload, item, out) -> bool:
    if isinstance(out, Exception):
        traceback.print_exception(out, file=sys.stderr)
        return False
    try:
        return workload.check(item, out)
    except Exception:  # a check that cannot run marks the output wrong
        traceback.print_exc(file=sys.stderr)
        return False


def run_for(workload, seconds, gauge):
    """Closed loop over fresh inputs until the operations' summed time,
    scaled by the gauge so far, reaches ``seconds`` (and at least two have
    run, for the percentiles).  A run so covers nearly the same inputs of a
    seed whether the machine is in a fast or a slow stretch.
    Drawing inputs, checking outputs and the gauge's bursts are not timed;
    each output is checked and dropped before the next operation, so memory
    does not grow with the number of operations."""
    durations, notes = [], Counter()
    failed = 0
    busy = 0.0
    while busy < seconds or len(durations) < 2:
        item = workload.next_item()
        start = time.perf_counter()
        out = call(workload, item)
        elapsed = time.perf_counter() - start
        durations.append(elapsed)
        gauge.after(elapsed)
        busy += elapsed * gauge.scale()
        if correct(workload, item, out):
            notes.update(workload.notes(item, out))
        else:
            failed += 1
    return durations, failed, notes


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload_cls, seed, seconds):
    # The set-up repetitions alternate with equal slices of the timed loop,
    # so that set-up, like the operations, is timed across the whole run and
    # not in one short stretch of the machine's speed.  The run's inputs come
    # from the first repetition; later ones re-import weylnil, which leaves
    # the modules the run's workload holds untouched.
    setup_s, workload, warm = set_up(workload_cls, seed, SETUP_DRAWS[0])
    setup_times, durations, notes = [setup_s], [], Counter()
    run_failed = 0
    gauge = SpeedGauge()
    for draw in SETUP_DRAWS[1:]:
        slice_durations, slice_failed, slice_notes = run_for(workload, seconds / (len(SETUP_DRAWS) - 1), gauge)
        durations += slice_durations
        run_failed += slice_failed
        notes.update(slice_notes)
        elapsed, last, _ = set_up(workload_cls, seed, draw)
        setup_times.append(elapsed)
    setup_s = statistics.median(setup_times)
    # both repetitions of draw 0 must draw the same inputs from the seed
    same_inputs = repr(workload.first_block) == repr(last.first_block)

    failed = run_failed + sum(not correct(workload, item, out) for item, out in warm)
    attempted = len(durations) + len(warm)
    busy = sum(durations)
    p50, p90 = statistics.median(durations), statistics.quantiles(durations, n=10)[8]
    scale = gauge.scale()
    name = workload_cls.name
    print(
        f"{name} seed {seed}: {len(durations)} operations in {busy:.3f} s of operation "
        f"time plus {len(warm)} warm-up operations; {failed} failed (failed_ratio "
        f"{failed / attempted:.4f}); latency p50 {p50 * 1e3:.3f} ms and p90 {p90 * 1e3:.3f} ms "
        f"over {len(durations)} samples; set-up median of {len(SETUP_DRAWS)}: {setup_s:.3f} s; "
        f"these as measured, the metrics scaled by {scale:.4f} "
        f"(mean of {len(gauge.bursts)} gauge bursts {SpeedGauge.REFERENCE_BURST_S / scale * 1e3:.4f} ms)"
    )
    if notes:
        print(f"{name} notes: " + ", ".join(f"{k} {v}/{len(durations)}" for k, v in sorted(notes.items())))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "correct": failed == 0 and same_inputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": metric((len(durations) - run_failed) / (busy * scale), "1/s"),
            "latency_p50_ms": metric(p50 * scale * 1e3, "ms"),
            "latency_p90_ms": metric(p90 * scale * 1e3, "ms"),
            "setup_s": metric(setup_s * scale, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def traced(workload_cls, seed):
    _, workload, warm = set_up(workload_cls, seed)
    items = workload.trace_items()
    tracer = tracing.Tracer()
    outputs, durations, plain = [], [], []
    for op, item in enumerate(items):
        # each input runs plain and traced back to back, in alternating
        # order, so that drift in machine speed cancels from the overhead
        for with_spans in (True, False) if op % 2 else (False, True):
            if with_spans:
                tracer.op = op
                with tracer.installed():
                    start = time.perf_counter()
                    outputs.append(call(workload, item))
                    durations.append(time.perf_counter() - start)
            else:
                start = time.perf_counter()
                call(workload, item)
                plain.append(time.perf_counter() - start)
    failed = sum(not correct(workload, item, out) for item, out in [*zip(items, outputs), *warm])
    tracer.write(HERE / "out" / f"trace-{workload_cls.name}.jsonl")

    s = tracer.summary()
    calls, self_s, incl_s, counts = s["calls"], s["self_s"], s["incl_s"], s["counts"]
    m = {
        "element.mul.calls": metric(calls["element.mul"], "count"),
        "element.mul.self_s": metric(self_s["element.mul"], "s"),
        "element.mul.terms_out": metric(counts["element.mul.terms_out"], "count"),
        "element.coeff_bits.max": metric(tracer.coeff_bits_max, "bits"),
        "poly.self_s": metric(self_s["poly"], "s"),
        "filtration.choose_weights.self_s": metric(self_s["filtration.choose_weights"], "s"),
        "filtration.factor_form.self_s": metric(self_s["filtration.factor_form"], "s"),
        "filtration.calls": metric(sum(v for k, v in calls.items() if k.startswith("filtration.")), "count"),
    }
    for kind in ("shiftX", "shiftD", "fourier"):
        name = f"automorphism.{kind}"
        m[f"{name}.calls"] = metric(calls[name], "count")
        m[f"{name}.self_s"] = metric(self_s[name], "s")
        m[f"{name}.terms_out"] = metric(counts[f"{name}.terms_out"], "count")
    m.update(
        {
            "descent.normalize_s": metric(incl_s["descent.normalize"], "s"),
            "descent.verify_s": metric(incl_s["descent.verify"], "s"),
            "descent.verify.calls": metric(calls["descent.verify"], "count"),
            "descent.certified": metric(counts["descent.certified"], "count"),
            "descent.step_s": metric(incl_s["descent.step"], "s"),
            "descent.decide.self_s": metric(self_s["descent.decide"], "s"),
            "descent.decide.calls": metric(calls["descent.decide"], "count"),
            "descent.partner_s": metric(incl_s["descent.partner"], "s"),
            "descent.centralizer_s": metric(incl_s["descent.centralizer"], "s"),
            "descent.ccr_s": metric(incl_s["descent.ccr"], "s"),
            "exprs.parse_s": metric(incl_s["exprs.parse"], "s"),
            "exprs.parse.calls": metric(calls["exprs.parse"], "count"),
            "wire.to_doc_s": metric(incl_s["wire.to_doc"], "s"),
            "wire.from_doc_s": metric(incl_s["wire.from_doc"], "s"),
            "cli.run.self_s": metric(self_s["cli.run"], "s"),
            "trace.ops": metric(len(items), "count"),
            "trace.ops_per_s": metric(len(items) / sum(durations), "1/s"),
            "trace.untraced_ops_per_s": metric(len(items) / sum(plain), "1/s"),
            "trace.overhead": metric(sum(durations) / sum(plain) - 1, "ratio"),
        }
    )
    # re-verification guard: every certified verdict on an input that needs
    # the descent must have gone through verify_certificate
    verified = calls["descent.verify"] >= counts["descent.certified"]
    print(
        f"{workload_cls.name} seed {seed} traced: {len(items)} operations, {failed} failed; "
        f"{calls['descent.verify']} verify_certificate calls for "
        f"{counts['descent.certified']} certified verdicts; {len(tracer.spans)} spans; "
        f"overhead {m['trace.overhead']['value']:.1%}"
    )
    return {
        "correct": failed == 0 and verified,
        "attempted": len(items) + len(warm),
        "failed": failed,
        "metrics": m,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weylnil" / "__init__.py").is_file():
        print(f"error: weylnil sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    result = traced(cls, args.seed) if args.trace else untraced(cls, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
