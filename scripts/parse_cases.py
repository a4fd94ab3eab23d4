"""Time the expression parser on fixed orbit elements in four text forms.

Run from the repository root, on the tree whose ``src`` is first on the
path:

    PYTHONPATH=src python3 scripts/parse_cases.py --repeat 5

The texts come from three orbit elements, the images of ``q(D)`` under the
fixed word ``(ShiftD(t/2 - t^3/3), ShiftX(t - t^2/2 + 2t^3/3), ShiftD(t^2 -
t^3/3))``, for ``q = D^3 - D/3`` (157 terms), ``D^4 - D^2/3 + D`` (273
terms) and ``D^5 - D/3`` (421 terms).  Each element is parsed in four
forms, built before the clock starts:

* ``printed``: its canonical print, the form ``decide`` reads in the
  benchmark, read in one sweep of the term pattern;
* ``grouped``: the same text in parentheses, a printed level inside a
  group;
* ``mixed``: the same text with the term ``D*x`` in front, a level that is
  not printed, so the factor loop reads every term;
* ``spaced``: the same text with spaces around every ``*`` and ``^``, which
  the factor loop reads too.

A case reports the best of ``--repeat`` runs, one ``parse_expression`` call
each, and a sha256 of the parsed element's ``(side, den, sorted
numerators)``, so two trees can be compared on the same table: equal
digests mean equal outputs, and the printed, grouped and spaced forms of
one element share a digest.  With ``--json`` the last line of standard
output is the table as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import time
from fractions import Fraction

import weylnil as wn


def elements():
    """``(name, element)`` for the three orbit elements."""
    _, d = wn.generators()
    third = Fraction(1, 3)
    word = (
        wn.ShiftD(wn.UniPoly((0, Fraction(1, 2), 0, -third))),
        wn.ShiftX(wn.UniPoly((0, 1, Fraction(-1, 2), 2 * third))),
        wn.ShiftD(wn.UniPoly((0, 0, 1, -third))),
    )
    qs = (("orbit157", d**3 - third * d), ("orbit273", d**4 - third * d**2 + d), ("orbit421", d**5 - third * d))
    return [(name, wn.apply_word(word, q)) for name, q in qs]


def forms(text: str):
    """``(form, text)`` for the four forms of a canonical print."""
    mixed = "D*x - " + text[1:] if text.startswith("-") else "D*x + " + text
    return [
        ("printed", text),
        ("grouped", "(" + text + ")"),
        ("mixed", mixed),
        ("spaced", text.replace("*", " * ").replace("^", " ^ ")),
    ]


def digest(e) -> str:
    data = repr((e.side, e.den, sorted(e.nums.items())))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per case; the best is reported")
    parser.add_argument("--json", action="store_true", help="end with the table as one JSON line")
    args = parser.parse_args(argv)
    table = {}
    for name, element in elements():
        for form, text in forms(str(element)):
            best = float("inf")
            gc.collect()
            for _ in range(max(args.repeat, 1)):
                start = time.perf_counter()
                out = wn.parse_expression(text)
                best = min(best, time.perf_counter() - start)
            case = f"{name}_{form}"
            table[case] = {"best_s": best, "chars": len(text), "digest": digest(out)}
            print(f"{case:18s} {best * 1e3:9.3f} ms  {len(text):6d} chars  {table[case]['digest']}")
    if args.json:
        print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
