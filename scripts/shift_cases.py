"""Time the shift generators on fixed synthetic cases.

Run from the repository root, on the tree whose ``src`` is first on the
path:

    PYTHONPATH=src python3 scripts/shift_cases.py --repeat 3

Each case applies ``apply_generator`` (or ``apply_word`` for a word) to a
fixed input; the inputs are built before the clock starts.  A case reports
the best of ``--repeat`` runs, the image's term count and a sha256 of its
``(side, den, sorted numerators)``, so two trees can be compared on the
same table: equal digests mean equal images.  With ``--json`` the last
line of standard output is the table as one JSON object.

The cases, smallest first; garbage is collected before each:

* ``cube_on_D64``: ``ShiftD(t^3/3)`` on ``D^64``;
* ``small_2000``: 2000 seeded elements of the size the benchmark's decide
  workloads shift (up to 6 terms, exponents 0-4), under shifts of degree 1
  to 5, timed as one batch;
* ``dense_600``: 600 seeded random elements (up to 8 terms, exponents 0-8,
  rational coefficients), each under a seeded rational ``ShiftX`` or
  ``ShiftD`` of degree 1 to 4, timed as one batch;
* ``word_on_D``: the word ``(ShiftX(p), ShiftD(p), ShiftX(p), ShiftD(p))``
  with ``p = t - t^2 + t^3 + 2t^4 - t^5 + t^6`` on ``D``, a large image of
  high order (39501 terms);
* ``square_on_D300``: ``ShiftD(t^2)`` on ``D^300``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import time
from fractions import Fraction

import weylnil as wn


def _random_shift(rng, max_deg):
    coeffs = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, max_deg))]
    coeffs[-1] = coeffs[-1] or Fraction(1)
    return rng.choice((wn.ShiftX, wn.ShiftD))(wn.UniPoly(coeffs))


def _random_batch(seed, count, max_terms, max_exp, max_deg):
    rng = random.Random(seed)
    batch = []
    while len(batch) < count:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
            terms[key] = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        e = wn.WeylElement(terms)
        if not e.is_zero():
            batch.append((_random_shift(rng, max_deg), e))
    return batch


def cases():
    """``(name, inputs, run)``: ``run(inputs)`` returns the images."""
    _, d = wn.generators()
    p = wn.UniPoly((0, 1, -1, 1, 2, -1, 1))
    word = (wn.ShiftX(p), wn.ShiftD(p), wn.ShiftX(p), wn.ShiftD(p))
    one = lambda pair: [wn.apply_generator(*pair)]
    batch = lambda pairs: [wn.apply_generator(g, e) for g, e in pairs]
    return [
        ("cube_on_D64", (wn.ShiftD(wn.UniPoly((0, 0, 0, Fraction(1, 3)))), d**64), one),
        ("small_2000", _random_batch(2000, 2000, 6, 4, 5), batch),
        ("dense_600", _random_batch(600, 600, 8, 8, 4), batch),
        ("word_on_D", d, lambda e: [wn.apply_word(word, e)]),
        ("square_on_D300", (wn.ShiftD(wn.UniPoly((0, 0, 1))), d**300), one),
    ]


def digest(images) -> str:
    h = hashlib.sha256()
    for e in images:
        h.update(repr((e.side, e.den, sorted(e.nums.items()))).encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per case; the best is reported")
    parser.add_argument("--json", action="store_true", help="end with the table as one JSON line")
    args = parser.parse_args(argv)
    table = {}
    for name, inputs, run in cases():
        best = float("inf")
        gc.collect()
        for _ in range(max(args.repeat, 1)):
            start = time.perf_counter()
            images = run(inputs)
            best = min(best, time.perf_counter() - start)
        terms = sum(len(e.nums) for e in images)
        table[name] = {"best_s": best, "terms_out": terms, "digest": digest(images)}
        print(f"{name:16s} {best:10.4f} s  {terms:8d} terms  {table[name]['digest']}")
    if args.json:
        print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
