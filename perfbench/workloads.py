"""Inputs, operations and output checks of the benchmark workloads.

Each workload draws its inputs from ``random.Random("<workload>:<seed>")``
and hands weylnil only the generated inputs.  Inputs come in blocks of fixed
composition: a candidate is drawn cheaply together with a size predicted
from its shape, and is built (the automorphism word applied) only while its
size class is still open in the current block.  Blocks are laid out in a
fixed interleaved order, so every prefix of the stream has nearly the mix of
a whole block and a time-bounded run sees the same mix whatever its length.
New blocks are drawn on demand, so no input repeats within a run.

``check`` runs outside the timed region and returns False for a wrong
output.  Notes on each workload are in ``WORKLOADS.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
from bisect import bisect_right
from collections import deque
from fractions import Fraction

LEADS = (-3, -2, -1, 1, 2, 3)
MAX_DRAWS = 20_000

# Size-class edges on the predicted image size (x-degree bound + 1) *
# (order bound + 1), per word length: near the octiles (quartiles for the
# cheap commutation pairs) of 20000 draws each.  The sizes take few distinct
# values, so the classes are only roughly equal in probability.
ORBIT_EDGES = {
    1: (8, 10, 21, 27, 40, 45, 65),
    2: (10, 21, 28, 45, 56, 85, 220),
    3: (32, 56, 105, 171, 256, 377, 616),
}
REJECT_EDGES = {3: (90, 144, 207, 279, 351, 437, 567), 4: (208, 308, 390, 480, 588, 735, 943)}
PAIR_EDGES = {1: (6, 10, 14), 2: (10, 44, 70), 3: (32, 78, 136)}
# decide_orbit's top size classes end here; the few larger draws take up to
# 0.4 s to build and 0.45 to 1.2 s to decide, and one of them would set a
# seed's set-up time and much of its run time.
ORBIT_MAX_SIZE = 800
# For constructions the size is the operator's predicted size times that of
# the centralizer generator word(D), capped at CONSTRUCTION_MAX_SIZE.
CONSTRUCTION_EDGES = {1: (100, 270, 520), 2: (168, 520, 1936), 3: (1936, 3360, 7040)}
CONSTRUCTION_MAX_SIZE = 10_000


def shape_bound(wn, word, x_deg: int, order: int):
    """Bounds (x-degree, order) for the image under ``word`` of an element of
    the given x-degree and order (last word entry applied first)."""
    for gen in reversed(word):
        if isinstance(gen, (wn.Fourier, wn.FourierInverse)):
            x_deg, order = order, x_deg
        elif isinstance(gen, wn.ShiftD):
            x_deg += order * max(gen.poly.degree - 1, 0)
        elif isinstance(gen, wn.ShiftX):
            order += x_deg * max(gen.poly.degree - 1, 0)
    return x_deg, order


def draw_word(wn, rng, word_len: int, degrees) -> tuple:
    """Alternating coordinate/derivative shifts with small integer
    coefficients and nonzero leading term, then a Fourier swap half the time
    (the orbit sampler of the acceptance suite)."""
    start_with_d = rng.random() < 0.5
    word = []
    for idx in range(word_len):
        degree = rng.randint(*degrees)
        coeffs = [0] + [rng.randint(-3, 3) for _ in range(degree - 1)] + [rng.choice(LEADS)]
        kind = wn.ShiftD if (idx % 2 == 0) == start_with_d else wn.ShiftX
        word.append(kind(wn.UniPoly(coeffs)))
    if rng.random() < 0.5:
        word.append(wn.Fourier())
    return tuple(word)


class Stream:
    """Endless stream of built inputs in blocks of fixed composition.

    A block holds one input per (stratum, size class).  ``draw(rng,
    stratum)`` returns a cheap candidate and its predicted size;
    ``build(candidate)`` returns the input, or None to discard it.
    """

    def __init__(self, rng, edges, draw, build):
        self.rng, self.edges, self.draw, self.build = rng, edges, draw, build
        strata = list(edges)
        classes = len(next(iter(edges.values()))) + 1
        # diagonal order: each group of len(strata) consecutive inputs holds
        # one input per stratum, from different size classes
        self.order = [(s, (i + k) % classes) for i in range(classes) for k, s in enumerate(strata)]

    def block(self) -> list:
        found = {}
        for stratum, edges in self.edges.items():
            open_classes = set(range(len(edges) + 1))
            for _ in range(MAX_DRAWS):
                if not open_classes:
                    break
                candidate, size = self.draw(self.rng, stratum)
                cls = bisect_right(edges, size)
                if cls in open_classes:
                    item = self.build(candidate)
                    if item is not None:
                        open_classes.discard(cls)
                        found[(stratum, cls)] = item
            if open_classes:
                raise RuntimeError(f"size classes {sorted(open_classes)} of stratum {stratum} stayed empty")
        return [found[key] for key in self.order]


class Workload:
    """Base of the workloads: a queue of inputs refilled block by block."""

    name = ""
    trace_blocks = 1  # whole blocks processed by the traced run

    def __init__(self, wn, rng):
        self.wn = wn
        self.rng = rng
        self.queue = deque()
        self.first_block = self.new_block()
        self.queue.extend(self.first_block)

    def new_block(self) -> list:
        raise NotImplementedError

    def next_item(self):
        if not self.queue:
            self.queue.extend(self.new_block())
        return self.queue.popleft()

    def trace_items(self) -> list:
        items = list(self.first_block)
        for _ in range(self.trace_blocks - 1):
            items.extend(self.new_block())
        return items

    def warm_up_items(self) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def notes(self, item, out) -> tuple:
        """Labels counted over the run's operations, for the workload notes."""
        return ()


# ----------------------------------------------------------------------------
# decide through the command line, in process
# ----------------------------------------------------------------------------


def decide_item(element):
    """A decide input: the canonical text and the element it stands for."""
    return str(element), element


class DecideWorkload(Workload):
    """``weylnil decide --json -- <text>`` through ``weylnil.cli.run``.

    The expression goes after ``--``: argparse would read a canonical text
    with a leading minus, such as ``-3*D``, as an option and exit 1.
    """

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.wn.cli.run(["decide", "--json", "--", item[0]])
        return code, buf.getvalue()

    @staticmethod
    def verdict_doc(out):
        """The decoded JSON verdict of a successful run, else None.  Decoding
        is client work, so only ``check`` and ``notes`` call this, outside the
        timed region and the traced spans."""
        code, text = out
        return json.loads(text) if code == 0 else None


def _orbit_draw(wn):
    derivative = wn.derivative("x")

    def draw(rng, word_len):
        # criterion-1 parameters: shift degrees 3..5, q of degree 1..4,
        # image order at most 16
        while True:
            word = draw_word(wn, rng, word_len, (3, 5))
            q_deg = rng.randint(1, 4)
            q = wn.UniPoly([rng.randint(-3, 3) for _ in range(q_deg)] + [rng.choice(LEADS)])
            x_deg, order = shape_bound(wn, word, 0, q_deg)
            # a zero bound means a polynomial in one generator
            if 0 < order <= 16 and x_deg > 0:
                return (word, q), (x_deg + 1) * (order + 1)

    def build(candidate):
        word, q = candidate
        element = wn.apply_word(word, wn.poly_at(q, derivative))
        # a polynomial in one generator certifies without descent or verification
        if element.depends_on_x() and element.depends_on_d():
            return element
        return None

    return draw, build


class DecideOrbit(DecideWorkload):
    """Orbit elements (criterion-1 parameters, word length 1..3) that depend
    on both generators; every one must certify and re-verify."""

    name = "decide_orbit"
    trace_blocks = 4

    def __init__(self, wn, rng):
        draw, build = _orbit_draw(wn)

        def draw_item(rng, word_len):
            while True:
                candidate, size = draw(rng, word_len)
                if size <= ORBIT_MAX_SIZE:
                    return candidate, size

        def build_item(candidate):
            element = build(candidate)
            return None if element is None else decide_item(element)

        self.stream = Stream(rng, ORBIT_EDGES, draw_item, build_item)
        super().__init__(wn, rng)

    def new_block(self):
        return self.stream.block()

    def warm_up_items(self):
        # -3*D is the input the CLI rejects without "--"
        return [decide_item(self.wn.parse_expression(t)) for t in ("D^2 - x", "-3*D")]

    def check(self, item, out):
        doc = self.verdict_doc(out)
        if doc is None or doc["verdict"] != "strictly-nilpotent":
            return False
        cert = self.wn.wire.certificate_from_doc(doc["certificate"])
        return self.wn.verify_certificate(item[1], cert)

    def notes(self, item, out):
        text, element = item
        return ("terms>=100",) * (len(element.terms) >= 100) + ("leading-minus",) * text.startswith("-")


class DecideReject(DecideWorkload):
    """Images of operators known not to act nilpotently under random words of
    3 or 4 shifts (degrees 2..5); rejection is invariant under the words, so
    any certificate is wrong."""

    name = "decide_reject"
    trace_blocks = 10

    # c != 0 in every family; none acts nilpotently:
    #   D^2 + c*x^2   ad on span{x, D} has eigenvalues +-2*sqrt(-c)
    #   D^3 + c*x*D   [L, D] = -c*D
    #   x*D + c       [L, x] = x
    #   x^2*D^2 + c*x*D = t^2 + (c-1)*t with t = x*D, and [f(t), x] = x*(f(t+1) - f(t))
    SHAPES = ((2, 2), (3, 1), (1, 1), (2, 2))  # (order, x-degree) per family
    MAX_SHAPE = 40
    # Decide time follows the image's term count far more closely than the
    # predicted size (log-log correlation 0.97 against 0.72).  The images
    # above this count, about 6% of length-3 and 4% of length-4 draws, take
    # up to 0.4 s each, and the few in a run would set its time.
    MAX_TERMS = 200

    def __init__(self, wn, rng):
        x, d = wn.generators("x")
        self.sources = (
            lambda c: d**2 + c * x**2,
            lambda c: d**3 + c * x * d,
            lambda c: x * d + c,
            lambda c: x**2 * d**2 + c * x * d,
        )
        self.stream = Stream(rng, REJECT_EDGES, self._draw, self._build)
        super().__init__(wn, rng)

    def _draw(self, rng, word_len):
        while True:
            family = rng.randrange(len(self.sources))
            c = Fraction(rng.choice(LEADS), rng.randint(1, 3))
            word = draw_word(self.wn, rng, word_len, (2, 5))
            order, x_deg = self.SHAPES[family]
            x_b, o_b = shape_bound(self.wn, word, x_deg, order)
            if max(x_b, o_b) <= self.MAX_SHAPE:
                return (family, c, word), (x_b + 1) * (o_b + 1)

    def _build(self, candidate):
        family, c, word = candidate
        image = self.wn.apply_word(word, self.sources[family](c))
        return decide_item(image) if len(image.terms) <= self.MAX_TERMS else None

    def new_block(self):
        return self.stream.block()

    def warm_up_items(self):
        return [decide_item(self.wn.parse_expression(t)) for t in ("D^2 + x^2", "-x*D")]

    def check(self, item, out):
        doc = self.verdict_doc(out)
        return doc is not None and doc["verdict"] == "not-strictly-nilpotent"

    def notes(self, item, out):
        doc = self.verdict_doc(out)
        return (f"{doc['reason']}@stage{doc['stage']}",) if doc is not None and "reason" in doc else ()


# ----------------------------------------------------------------------------
# algebra laws on small dense rational elements
# ----------------------------------------------------------------------------


class AlgebraLaws(Workload):
    """Associativity, Jacobi and Leibniz on triples of elements with six
    distinct monomials x^i D^j (i, j <= 4) and coefficients p/q with
    |p| <= 100, 1 <= q <= 100."""

    name = "algebra_laws"
    BLOCK = 50
    trace_blocks = 3

    def _element(self):
        keys = self.rng.sample([(i, j) for i in range(5) for j in range(5)], 6)
        return self.wn.WeylElement(
            {k: Fraction(self.rng.choice([-1, 1]) * self.rng.randint(1, 100), self.rng.randint(1, 100)) for k in keys}
        )

    def new_block(self):
        return [tuple(self._element() for _ in range(3)) for _ in range(self.BLOCK)]

    def warm_up_items(self):
        x, d = self.wn.generators("x")
        return [(x, d, x * d - Fraction(1, 2))]

    def run(self, item):
        a, b, c = item
        com = self.wn.commutator
        bc = b * c
        return (
            (a * b) * c,
            a * bc,
            com(a, com(b, c)) + com(b, com(c, a)) + com(c, com(a, b)),
            com(a, bc),
            com(a, b) * c + b * com(a, c),
        )

    def check(self, item, out):
        assoc_left, assoc_right, jacobi, leibniz_left, leibniz_right = out
        return assoc_left == assoc_right and jacobi.is_zero() and leibniz_left == leibniz_right


# ----------------------------------------------------------------------------
# constructions on certified operators and commutation pairs
# ----------------------------------------------------------------------------


class Constructions(Workload):
    """``bispectral_partner`` and ``centralizer_generator`` on each orbit
    operator of ``decide_orbit``'s distribution, then ``ccr_to_generators`` on
    a constructed commutation pair.  Each operation calls ``decide`` once."""

    name = "constructions"
    trace_blocks = 2

    def __init__(self, wn, rng):
        draw, build = _orbit_draw(wn)

        def draw_operator(rng, word_len):
            # the centralizer's commutator check multiplies the operator by
            # word(D), so its cost grows with this product of sizes; above
            # the cap one such check takes about 0.1 to 0.5 s up to a size
            # of 30000 and up to 7 s beyond, and the few such operations in
            # a run would set its time
            while True:
                (word, q), size = draw(rng, word_len)
                x_deg, order = shape_bound(wn, word, 0, 1)
                size *= (x_deg + 1) * (order + 1)
                if size <= CONSTRUCTION_MAX_SIZE:
                    return (word, q), size

        self.orbit = Stream(rng, CONSTRUCTION_EDGES, draw_operator, build)
        self.pairs = Stream(rng, PAIR_EDGES, self._draw_pair, self._build_pair)
        self._checked = (None, None)  # (operator, certificate) of the last check
        super().__init__(wn, rng)

    def _draw_pair(self, rng, word_len):
        while True:
            word = draw_word(self.wn, rng, word_len, (3, 5))
            a = Fraction(rng.choice(LEADS), rng.randint(1, 3))
            b = Fraction(rng.randint(-4, 4))
            tail = self.wn.UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
            first = shape_bound(self.wn, word, 0, 1)
            second = shape_bound(self.wn, word, 1, max(tail.degree, 0))
            if max(first + second) <= 16:
                return (word, a, b, tail), (second[0] + 1) * (second[1] + 1)

    def _build_pair(self, candidate):
        word, a, b, tail = candidate
        wn = self.wn
        op = wn.apply_word(word, a * wn.derivative("x") + wn.WeylElement.scalar(b))
        mate = wn.apply_word(word, wn.coordinate("x") / a + wn.WeylElement.from_d_poly(tail))
        return op, mate

    def new_block(self):
        items = []
        for element, pair in zip(self.orbit.block(), self.pairs.block(), strict=True):
            items += [("partner", element), ("centralizer", element), ("ccr", pair)]
        return items

    def warm_up_items(self):
        x, d = self.wn.generators("x")
        airy = d**2 - x
        return [("partner", airy), ("centralizer", airy), ("ccr", (d - x**2, x))]

    def run(self, item):
        kind, arg = item
        wn = self.wn
        if kind == "partner":
            return wn.bispectral_partner(arg)
        if kind == "centralizer":
            return wn.centralizer_generator(arg)
        return wn.ccr_to_generators(*arg)

    def _certificate(self, element):
        """Certificate of an independent decide call, shared by the partner
        and centralizer checks of one operator."""
        if self._checked[0] is not element:
            self._checked = (element, self.wn.decide(element).certificate)
        return self._checked[1]

    def check(self, item, out):
        kind, arg = item
        wn = self.wn
        if kind == "ccr":
            op, mate = arg
            if not isinstance(out, wn.GenerationWitness):
                return False
            d, x = wn.derivative("x"), wn.coordinate("x")
            first = wn.apply_word(out.word, out.a * d + wn.WeylElement.scalar(out.b))
            second = wn.apply_word(out.word, x / out.a + wn.WeylElement.from_d_poly(out.tail))
            return first == op and second == mate
        cert = self._certificate(arg)
        if kind == "partner":
            pre_image = wn.anti_involution(out.lambda_op)
            return (
                out.lambda_op.side == "z"
                and out.f_poly == cert.gen_poly
                and wn.apply_word(cert.word, pre_image) == wn.coordinate("x")
            )
        return wn.poly_at(cert.gen_poly, out) == arg

    def notes(self, item, out):
        return (item[0],)


WORKLOADS = {cls.name: cls for cls in (DecideOrbit, DecideReject, AlgebraLaws, Constructions)}
