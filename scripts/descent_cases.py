"""Time ``decide`` alone on the criterion-1 corpus and on rejected images.

Run from the repository root, on the tree whose ``src`` is first on the
path:

    PYTHONPATH=src python3 scripts/descent_cases.py --repeat 5

Two sets of operators are built before the clock starts:

* ``criterion1``: the 200 orbit elements of acceptance criterion 1,
  ``random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4,
  max_order=16)`` for seeds 1 to 200; each certifies, so each ``decide``
  call also re-verifies its certificate;
* ``rejected``: the negative corpus of acceptance criterion 2 (``x*D``,
  ``D^2 + x^2``, ``D^2 + 5*x^2``, ``D^3 + x*D``, ``x^2*D^2``), each times 1
  and times -3/2, under four fixed words (see ``WORDS``); none acts
  nilpotently, so each call runs the prologue, the normalizing shift and the
  descent stages up to a rejection.

A set reports the best of ``--repeat`` runs, one ``decide`` call per
operator each, and a sha256 of the ``verdict_to_doc`` JSON of its verdicts
(compact, keys sorted), so two trees can be compared on the same table:
equal digests mean equal verdicts.  With ``--json`` the last line of
standard output is the table as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import time
from fractions import Fraction

import weylnil as wn
from weylnil.wire import verdict_to_doc

NEGATIVE_CORPUS = ("x*D", "D^2 + x^2", "D^2 + 5*x^2", "D^3 + x*D", "x^2*D^2")
SCALARS = (Fraction(1), Fraction(-3, 2))


def _poly(*coeffs):
    return wn.UniPoly([Fraction(c) for c in coeffs])


# last entry applied first, as in apply_word
WORDS = (
    (wn.ShiftD(_poly(0, 0, -1, "1/3")),),
    (wn.ShiftX(_poly(0, 1, "-1/2", 0, 2)), wn.ShiftD(_poly(0, 0, 1, -1))),
    (wn.Fourier(), wn.ShiftD(_poly(0, "1/2", 0, "-2/3"))),
    (wn.ShiftD(_poly(0, 0, 2)), wn.ShiftX(_poly(0, 0, -1, "1/3")), wn.ShiftD(_poly(0, 1, 0, "1/4"))),
)


def operator_sets():
    """``(name, operators)`` for the two sets."""
    criterion1 = [
        wn.random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16)[0]
        for seed in range(1, 201)
    ]
    rejected = [
        wn.apply_word(word, c * wn.parse_expression(text))
        for text in NEGATIVE_CORPUS
        for c in SCALARS
        for word in WORDS
    ]
    return [("criterion1", criterion1), ("rejected", rejected)]


def digest(verdicts) -> str:
    h = hashlib.sha256()
    for verdict in verdicts:
        h.update(json.dumps(verdict_to_doc(verdict), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per set; the best is reported")
    parser.add_argument("--json", action="store_true", help="end with the table as one JSON line")
    args = parser.parse_args(argv)
    table = {}
    for name, operators in operator_sets():
        best = float("inf")
        gc.collect()
        for _ in range(max(args.repeat, 1)):
            start = time.perf_counter()
            verdicts = [wn.decide(e) for e in operators]
            best = min(best, time.perf_counter() - start)
        terms = sum(len(e.nums) for e in operators)
        table[name] = {"best_s": best, "operators": len(operators), "terms": terms, "digest": digest(verdicts)}
        print(f"{name:12s} {best * 1e3:9.3f} ms  {len(operators):4d} operators  {terms:6d} terms  {table[name]['digest']}")
    if args.json:
        print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
