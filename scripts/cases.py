"""Time the fixed cases behind the repository's speed claims, set by set.

Run from the repository root, on the tree whose ``src`` is first on the
path:

    PYTHONPATH=src python3 scripts/cases.py SET [--repeat N] [--json]

``SET`` is ``shift``, ``exchange``, ``parse``, ``descent``, ``product``,
``cli``, ``import`` or ``all`` (each in turn).  A set starts from a fresh
import of weylnil and builds its inputs before the clock starts; garbage is
collected before each case, which runs ``--repeat`` times (by default 3, 3,
5, 5, 3, 5 and 15 in the order above).  A case reports a sha256 prefix of its output,
so two trees compare on the same table: equal digests mean equal outputs.
``scripts/case_digests.json`` holds the digests of this tree by set and
case; CI runs ``all --repeat 1 --json`` and fails on any digest that
differs from it.
An element's output is its ``(side, den, sorted numerators)``.  With
``--json`` the last line of a set's output is its table as one JSON object.

``shift``: the best run of ``apply_generator`` (``apply_word`` for a word)
and the images' term count, on ``ShiftD(t^3/3)`` on ``D^64``
(``cube_on_D64``); a batch of 2000 seeded elements of the size the decide
workloads shift, up to 6 terms and exponents 4, under shifts of degree 1 to
5 (``small_2000``); a batch of 600, up to 8 terms and exponents 8, under
degree 1 to 4 (``dense_600``); ``(ShiftX(p), ShiftD(p), ShiftX(p),
ShiftD(p))`` for ``p = t - t^2 + t^3 + 2t^4 - t^5 + t^6`` on ``D``, 39501
terms (``word_on_D``); and ``ShiftD(t^2)`` on ``D^300``
(``square_on_D300``).

``exchange``: the weights ``t! C(i, t) C(j, t)`` of moving ``D^j`` past
``x^i``, up to the exponent cap of 4096.  Each case imports weylnil afresh,
so its first (cold) run, reported with the best, reads no cache an earlier
case filled.  Integers are digested in hex, as a large numerator's decimal
string exceeds Python's limit; a ``decide`` output is its exit code and
standard output.  The cases: ``FactoredForm(1, 2, 2048, -7/3).expand()``,
the descent's ``Y (Y^2 + 7/3 X)^2048`` (``expand_k2048``);
``apply_generator(Fourier(), x^4096 D^4096)`` (``fourier_x4096D4096``) and
``D^4096 * x^4096`` (``product_D4096x4096``), both of 4097 terms;
``decide`` through ``cli.run`` on ``D^512*x^512+x^1024``,
``D^1024*x^1024+x^2048`` and ``D^4096*x^4096`` (``decide_D512x512``,
``decide_D1024x1024``, ``decide_D4096x4096``).

``parse``: the best ``parse_expression`` call on the prints of ``q(D)``
under ``(ShiftD(t/2 - t^3/3), ShiftX(t - t^2/2 + 2t^3/3), ShiftD(t^2 -
t^3/3))`` for ``q = D^3 - D/3``, ``D^4 - D^2/3 + D`` and ``D^5 - D/3``
(``orbit157``, ``orbit273``, ``orbit421``, by term count), in four forms:
``printed``, the canonical text ``decide`` reads in the benchmark, read in
one sweep of the term pattern; ``grouped``, in parentheses; ``mixed``, with
``D*x`` in front, so the factor loop reads every term; ``spaced``, with
spaces around each ``*`` and ``^``, also for the factor loop.  All forms but
``mixed`` share an element's digest.

``descent``: the first (cold) and the best run of one ``decide`` per
operator; the output is each verdict's ``verdict_to_doc`` JSON, keys sorted.
``decide`` keeps its verdict on the element, so only the cold run descends:
a later run returns the kept verdicts and re-verifies each certified one.
``criterion1``: the 200 certified, so re-verified, operators of acceptance
criterion 1, ``random_orbit_element(seed, word_len=seed % 4, max_deg=5,
max_q_deg=4, max_order=16)`` for seeds 1 to 200.  ``rejected``: the 40
operators of ``rejected_corpus``, criterion 2's negative corpus times 1 and
-3/2 under four fixed words, each call running the prologue, the
normalizing shift and the descent up to a rejection.
``partner_centralizer``: ``bispectral_partner``, then
``centralizer_generator``, on each criterion-1 operator that depends on the
derivative, so is certified on the derivative side, built anew for this
case; the cold run descends once per operator, within the partner, and
every run re-verifies each certificate twice.  Its output is each partner's
operator and polynomial and the centralizer generator, as JSON.

``product``: the best run and the outputs' term count of the product
kernel, digested with the integers in hex.  ``laws_50``: 50 seeded triples
of the ``algebra_laws`` shape (six distinct monomials ``x^i D^j``, i, j <=
4, coefficients p/q with 1 <= |p|, q <= 100) through its five law sides,
``(a*b)*c``, ``a*(b*c)``, the Jacobi sum, ``[a, b*c]`` and ``[a, b]*c +
b*[a, c]``; ``(x+D)^64 * (x+D)^64`` (``xD64_squared``), a dense product;
``commutator((x+D)^64, x^3*D^5 + D^2*x^7)`` (``bracket_xD64``), a dense
bracket; and ``D^4096 * x^4096`` (``D4096_x4096``), a sparse product over a
4097-by-4097 key rectangle.

``cli``: the best run of fixed ``cli.run`` calls in process, each output
the exit codes and standard output of its calls.  ``decide_airy_json``:
``decide --json "D^2 - x"``; ``decide_orbit_96``: ``decide --json --`` on
the printed criterion-1 operators of seeds 1 to 96, one call each, as the
``decide_orbit`` benchmark calls it; ``decide_rejected_json``: ``decide
--json --`` on the printed texts of the ``descent`` set's 40 ``rejected``
operators, one call each, so rejection documents (stage texts and a
diagnostic, no certificate) are written too; ``ccr_generators``: ``ccr
"D - x^2" "x" --generators``; ``random_seed7``: ``random --seed 7``.  Each
call parses its arguments and writes its JSON or text, so the set follows
the command line's own share of a decide.

``import``: medians, no digest.  ``reimport`` drops weylnil from
``sys.modules`` and imports ``weylnil.cli`` again, as ``perfbench/run.py``
does before each set-up, after one untimed import; the drop (about 0.05 ms)
is timed too, and whether the source is compiled follows the environment.
``cold_cli`` runs ``python -m weylnil.cli decide "D^2 - x"``, start-up
included, which must exit 0 with the Airy verdict.  That a fresh ``import
weylnil.cli`` loads neither ``dataclasses`` nor ``inspect`` is a tier-1 test
in ``tests/test_values.py``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import operator
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial


def fresh_weylnil():
    """Import weylnil afresh, dropping every module state of earlier cases."""
    for name in [n for n in sys.modules if n == "weylnil" or n.startswith("weylnil.")]:
        del sys.modules[name]
    importlib.import_module("weylnil.cli")
    return sys.modules["weylnil"]


def timed(run, repeat):
    """Collect garbage, then call ``run`` ``repeat`` times: the seconds of
    each call and the last output."""
    gc.collect()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - start)
    return times, out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def element_digest(elements) -> str:
    return digest("".join(repr((e.side, e.den, sorted(e.nums.items()))) for e in elements))


def hex_digest(elements) -> str:
    """``element_digest`` with the integers in hex, as a large numerator's
    decimal string exceeds Python's limit."""
    return digest("".join(repr((e.side, hex(e.den), [(k, hex(n)) for k, n in sorted(e.nums.items())])) for e in elements))


def best(times):
    return {"best_s": min(times)}


def cold_and_best(times):
    return {"cold_s": times[0], "best_s": min(times)}


def time_cases(cases, summary, describe, line, repeat):
    """Time each ``(name, run, facts)`` of ``cases()``, print its row and
    return the table.  A row is the set's ``summary`` of the run times, the
    input ``facts``, then what ``describe`` reads from the last output."""
    table = {}
    for name, run, facts in cases():
        times, out = timed(run, repeat)
        table[name] = row = {**summary(times), **facts, **describe(out)}
        print(line(name, row))
    return table


def _random_batch(wn, seed, count, max_terms, max_exp, max_deg):
    rng = random.Random(seed)
    batch = []
    while len(batch) < count:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
            terms[key] = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        e = wn.WeylElement(terms)
        if not e.is_zero():
            coeffs = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, max_deg))]
            coeffs[-1] = coeffs[-1] or Fraction(1)
            batch.append((rng.choice((wn.ShiftX, wn.ShiftD))(wn.UniPoly(coeffs)), e))
    return batch


def shift_cases():
    wn = fresh_weylnil()
    _, d = wn.generators()
    p = wn.UniPoly((0, 1, -1, 1, 2, -1, 1))
    word = (wn.ShiftX(p), wn.ShiftD(p), wn.ShiftX(p), wn.ShiftD(p))
    batch = lambda pairs: (lambda: [wn.apply_generator(g, e) for g, e in pairs])
    return [
        ("cube_on_D64", batch([(wn.ShiftD(wn.UniPoly((0, 0, 0, Fraction(1, 3)))), d**64)]), {}),
        ("small_2000", batch(_random_batch(wn, 2000, 2000, 6, 4, 5)), {}),
        ("dense_600", batch(_random_batch(wn, 600, 600, 8, 8, 4)), {}),
        ("word_on_D", lambda: [wn.apply_word(word, d)], {}),
        ("square_on_D300", batch([(wn.ShiftD(wn.UniPoly((0, 0, 1))), d**300)]), {}),
    ]


def shift_outputs(images):
    return {"terms_out": sum(len(e.nums) for e in images), "digest": element_digest(images)}


def product_outputs(elements):
    return {"terms_out": sum(len(e.nums) for e in elements), "digest": hex_digest(elements)}


def _decide(wn, text):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wn.cli.run(["decide", text])
    return code, buf.getvalue()


def exchange_cases():
    """Each case's input is built on its own fresh import."""
    prepares = [
        ("expand_k2048", lambda wn: wn.FactoredForm(1, 2, 2048, Fraction(-7, 3)).expand),
        ("fourier_x4096D4096", lambda wn: partial(wn.apply_generator, wn.Fourier(), wn.WeylElement({(4096, 4096): 1}))),
        ("product_D4096x4096", lambda wn: partial(operator.mul, wn.derivative() ** 4096, wn.coordinate() ** 4096)),
        ("decide_D512x512", lambda wn: partial(_decide, wn, "D^512*x^512+x^1024")),
        ("decide_D1024x1024", lambda wn: partial(_decide, wn, "D^1024*x^1024+x^2048")),
        ("decide_D4096x4096", lambda wn: partial(_decide, wn, "D^4096*x^4096")),
    ]
    for name, prepare in prepares:
        yield name, prepare(fresh_weylnil()), {}


def exchange_outputs(out):
    return {"digest": digest(repr(out)) if isinstance(out, tuple) else hex_digest([out])}


def parse_cases():
    wn = fresh_weylnil()
    _, d = wn.generators()
    third = Fraction(1, 3)
    word = (
        wn.ShiftD(wn.UniPoly((0, Fraction(1, 2), 0, -third))),
        wn.ShiftX(wn.UniPoly((0, 1, Fraction(-1, 2), 2 * third))),
        wn.ShiftD(wn.UniPoly((0, 0, 1, -third))),
    )
    cases = []
    for name, q in (("orbit157", d**3 - third * d), ("orbit273", d**4 - third * d**2 + d), ("orbit421", d**5 - third * d)):
        text = str(wn.apply_word(word, q))
        mixed = "D*x - " + text[1:] if text.startswith("-") else "D*x + " + text
        spaced = text.replace("*", " * ").replace("^", " ^ ")
        for form, t in (("printed", text), ("grouped", "(" + text + ")"), ("mixed", mixed), ("spaced", spaced)):
            cases.append((f"{name}_{form}", partial(wn.parse_expression, t), {"chars": len(t)}))
    return cases


def rejected_corpus(wn):
    """Criterion 2's negative corpus times 1 and -3/2 under four fixed
    words: 40 operators, each rejected after the prologue, the normalizing
    shift and the descent up to a rejection."""
    poly = lambda *coeffs: wn.UniPoly([Fraction(c) for c in coeffs])
    # last entry applied first, as in apply_word
    words = (
        (wn.ShiftD(poly(0, 0, -1, "1/3")),),
        (wn.ShiftX(poly(0, 1, "-1/2", 0, 2)), wn.ShiftD(poly(0, 0, 1, -1))),
        (wn.Fourier(), wn.ShiftD(poly(0, "1/2", 0, "-2/3"))),
        (wn.ShiftD(poly(0, 0, 2)), wn.ShiftX(poly(0, 0, -1, "1/3")), wn.ShiftD(poly(0, 1, 0, "1/4"))),
    )
    return [
        wn.apply_word(word, c * wn.parse_expression(text))
        for text in ("x*D", "D^2 + x^2", "D^2 + 5*x^2", "D^3 + x*D", "x^2*D^2")
        for c in (Fraction(1), Fraction(-3, 2))
        for word in words
    ]


def descent_cases():
    wn = fresh_weylnil()
    corpus = lambda: [
        wn.random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16)[0]
        for seed in range(1, 201)
    ]
    criterion1 = corpus()
    rejected = rejected_corpus(wn)
    # copies of their own, which no earlier case has decided
    derivative_side = [e for e in corpus() if e.depends_on_d()]
    facts = lambda ops: {"operators": len(ops), "terms": sum(len(e.nums) for e in ops)}
    return [
        ("criterion1", lambda: [wn.decide(e) for e in criterion1], facts(criterion1)),
        ("rejected", lambda: [wn.decide(e) for e in rejected], facts(rejected)),
        (
            "partner_centralizer",
            lambda: [(wn.bispectral_partner(e), wn.centralizer_generator(e)) for e in derivative_side],
            facts(derivative_side),
        ),
    ]


def descent_outputs(outs):
    # of the set's fresh import, as the outputs are
    from weylnil.wire import element_to_doc, verdict_to_doc

    def doc(out):
        if not isinstance(out, tuple):
            return verdict_to_doc(out)
        partner, generator = out
        return {
            "lambda": element_to_doc(partner.lambda_op),
            "f": partner.f_poly.format("z"),
            "centralizer": element_to_doc(generator),
        }

    return {"digest": digest("".join(json.dumps(doc(out), sort_keys=True) + "\n" for out in outs))}


def _law_triples(wn, seed, count):
    """``count`` triples of the ``algebra_laws`` shape: six distinct monomials
    ``x^i D^j`` (i, j <= 4) with coefficients p/q, 1 <= |p|, q <= 100."""
    rng = random.Random(seed)
    grid = [(i, j) for i in range(5) for j in range(5)]

    def element():
        return wn.WeylElement(
            {k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 100), rng.randint(1, 100)) for k in rng.sample(grid, 6)}
        )

    return [(element(), element(), element()) for _ in range(count)]


def _laws(wn, triples):
    """Associativity, Jacobi and Leibniz on each triple: the five sides."""
    com = wn.commutator
    out = []
    for a, b, c in triples:
        bc = b * c
        out += [
            (a * b) * c,
            a * bc,
            com(a, com(b, c)) + com(b, com(c, a)) + com(c, com(a, b)),
            com(a, bc),
            com(a, b) * c + b * com(a, c),
        ]
    return out


def product_cases():
    wn = fresh_weylnil()
    x, d = wn.generators()
    triples = _law_triples(wn, 27, 50)
    power, other = (x + d) ** 64, x**3 * d**5 + d**2 * x**7
    dn, xn = d**4096, x**4096
    return [
        ("laws_50", partial(_laws, wn, triples), {}),
        ("xD64_squared", lambda: [power * power], {}),
        ("bracket_xD64", lambda: [wn.commutator(power, other)], {}),
        ("D4096_x4096", lambda: [dn * xn], {}),
    ]


def _cli_calls(wn, calls):
    """Run each argument list through ``cli.run``: the exit codes and standard output."""
    buf = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(buf):
        for argv in calls:
            codes.append(wn.cli.run(argv))
    return codes, buf.getvalue()


def cli_cases():
    wn = fresh_weylnil()
    orbit = [
        str(wn.random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16)[0])
        for seed in range(1, 97)
    ]
    rejected = [str(e) for e in rejected_corpus(wn)]
    return [
        (name, partial(_cli_calls, wn, calls), {"calls": len(calls)})
        for name, calls in (
            ("decide_airy_json", [["decide", "--json", "D^2 - x"]]),
            ("decide_orbit_96", [["decide", "--json", "--", text] for text in orbit]),
            ("decide_rejected_json", [["decide", "--json", "--", text] for text in rejected]),
            ("ccr_generators", [["ccr", "D - x^2", "x", "--generators"]]),
            ("random_seed7", [["random", "--seed", "7"]]),
        )
    ]


def cli_outputs(out):
    codes, text = out
    if any(codes):
        raise SystemExit(f"a cli case exited with {codes}")
    return {"digest": digest(text)}


def cold_cli():
    done = subprocess.run([sys.executable, "-m", "weylnil.cli", "decide", "D^2 - x"], capture_output=True, text=True)
    if done.returncode != 0 or "verdict: strictly-nilpotent" not in done.stdout.splitlines():
        raise SystemExit(f"cold CLI run failed with exit {done.returncode}: {done.stderr.strip()}")


def import_set(repeat):
    fresh_weylnil()
    reimport = statistics.median(timed(fresh_weylnil, repeat)[0])
    cold = statistics.median(timed(cold_cli, repeat)[0])
    print(f"reimport   {reimport * 1e3:8.2f} ms  median of {repeat}")
    print(f"cold_cli   {cold * 1e3:8.2f} ms  median of {repeat}")
    return {"reimport_s": reimport, "cold_cli_s": cold, "repeat": repeat}


SETS = {  # set name: (default repeat, run(repeat) -> table)
    "shift": (3, partial(time_cases, shift_cases, best, shift_outputs, lambda name, r: (
        f"{name:16s} {r['best_s']:10.4f} s  {r['terms_out']:8d} terms  {r['digest']}"))),
    "exchange": (3, partial(time_cases, exchange_cases, cold_and_best, exchange_outputs, lambda name, r: (
        f"{name:20s} cold {r['cold_s']:9.4f} s  best {r['best_s']:9.4f} s  {r['digest']}"))),
    "parse": (5, partial(time_cases, parse_cases, best, lambda e: {"digest": element_digest([e])}, lambda name, r: (
        f"{name:18s} {r['best_s'] * 1e3:9.3f} ms  {r['chars']:6d} chars  {r['digest']}"))),
    "descent": (5, partial(time_cases, descent_cases, cold_and_best, descent_outputs, lambda name, r: (
        f"{name:20s} cold {r['cold_s'] * 1e3:9.3f} ms  best {r['best_s'] * 1e3:9.3f} ms  "
        f"{r['operators']:4d} operators  {r['terms']:6d} terms  {r['digest']}"))),
    "product": (3, partial(time_cases, product_cases, best, product_outputs, lambda name, r: (
        f"{name:14s} {r['best_s']:10.4f} s  {r['terms_out']:8d} terms  {r['digest']}"))),
    "cli": (5, partial(time_cases, cli_cases, best, cli_outputs, lambda name, r: (
        f"{name:20s} {r['best_s'] * 1e3:9.3f} ms  {r['calls']:4d} calls  {r['digest']}"))),
    "import": (15, import_set),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set", choices=[*SETS, "all"])
    parser.add_argument("--repeat", type=int, help="runs per case (default: the set's own)")
    parser.add_argument("--json", action="store_true", help="end each set with its table as one JSON line")
    args = parser.parse_args(argv)
    for name in SETS if args.set == "all" else [args.set]:
        default, run_set = SETS[name]
        if args.set == "all":
            print(f"# {name}")
        table = run_set(max(default if args.repeat is None else args.repeat, 1))
        if args.json:
            print(json.dumps(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
