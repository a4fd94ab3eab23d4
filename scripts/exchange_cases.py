"""Time the exchange of D^j past x^i on fixed cold cases.

Run from the repository root, on the tree whose ``src`` is first on the
path:

    PYTHONPATH=src python3 scripts/exchange_cases.py --repeat 3

Moving ``D^j`` past ``x^i`` into normal order weighs each contraction order
``t`` by ``t! C(i, t) C(j, t)``.  The product, the Fourier swap and the
descent's shape test all build such weights, at exponents up to the
documented cap of 4096.  Each case imports weylnil afresh, so its first run
starts from a cold process state and reads no cache that an earlier case
filled; it then builds its input before the clock starts.  A case reports
that first (cold) run, the best of ``--repeat`` runs, and a sha256 of its
output, so two trees can be compared on the same table: equal digests mean
equal outputs.  An element's output is its ``(side, den, sorted
numerators)``; a ``decide`` case's is its exit code and standard output.
With ``--json`` the last line of standard output is the table as one JSON
object.

The cases, smallest first; garbage is collected before each:

* ``expand_k2048``: ``FactoredForm(1, 2, 2048, -7/3).expand()``, the
  descent's power ``Y (Y^2 + 7/3 X)^2048``;
* ``fourier_x4096D4096``: ``apply_generator(Fourier(), x^4096 D^4096)``, an
  image of 4097 terms;
* ``product_D4096x4096``: the product ``D^4096 * x^4096``, also 4097 terms;
* ``decide_D512x512``: ``decide "D^512*x^512+x^1024"`` through ``cli.run``;
* ``decide_D1024x1024``: ``decide "D^1024*x^1024+x^2048"``;
* ``decide_D4096x4096``: ``decide "D^4096*x^4096"``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import sys
import time
from fractions import Fraction


def fresh_weylnil():
    """Import weylnil afresh, dropping every module state of earlier cases."""
    for name in [n for n in sys.modules if n == "weylnil" or n.startswith("weylnil.")]:
        del sys.modules[name]
    importlib.import_module("weylnil.cli")
    return sys.modules["weylnil"]


def _decide(text):
    def prepare(wn):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = wn.cli.run(["decide", text])
            return code, buf.getvalue()

        return run

    return prepare


def _fourier(wn):
    e = wn.WeylElement({(4096, 4096): 1})
    return lambda: wn.apply_generator(wn.Fourier(), e)


def _product(wn):
    d, x = wn.derivative() ** 4096, wn.coordinate() ** 4096
    return lambda: d * x


def cases():
    """``(name, prepare)``: ``prepare(wn)`` builds the inputs and returns
    the timed call, which returns the output."""
    return [
        ("expand_k2048", lambda wn: wn.FactoredForm(1, 2, 2048, Fraction(-7, 3)).expand),
        ("fourier_x4096D4096", _fourier),
        ("product_D4096x4096", _product),
        ("decide_D512x512", _decide("D^512*x^512+x^1024")),
        ("decide_D1024x1024", _decide("D^1024*x^1024+x^2048")),
        ("decide_D4096x4096", _decide("D^4096*x^4096")),
    ]


def digest(out) -> str:
    if isinstance(out, tuple):
        data = repr(out)
    else:
        # hex, as the decimal string of a large numerator exceeds Python's
        # default conversion limit
        data = repr((out.side, hex(out.den), [(k, hex(n)) for k, n in sorted(out.nums.items())]))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per case; the first and the best are reported")
    parser.add_argument("--json", action="store_true", help="end with the table as one JSON line")
    args = parser.parse_args(argv)
    table = {}
    for name, prepare in cases():
        run = prepare(fresh_weylnil())
        gc.collect()
        times = []
        for _ in range(max(args.repeat, 1)):
            start = time.perf_counter()
            out = run()
            times.append(time.perf_counter() - start)
        table[name] = {"cold_s": times[0], "best_s": min(times), "digest": digest(out)}
        print(f"{name:20s} cold {times[0]:9.4f} s  best {min(times):9.4f} s  {table[name]['digest']}")
    if args.json:
        print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
