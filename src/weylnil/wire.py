"""JSON wire formats for elements, automorphism words, and certificates.

Element document::

    {"side": "x"|"z", "terms": [{"xexp": int, "dexp": int, "coeff": "p/q"}]}

with terms sorted ascending by (xexp, dexp), exponents at most the parser's
``MAX_EXPONENT`` and coefficients as exact rational strings.  Word
document: ordered list (first entry applied last, matching composition
notation) of::

    {"kind": "shiftX"|"shiftD", "poly": ["c0", "c1", ...]}   or
    {"kind": "fourier"}

where shift polynomials are coefficient strings ascending by degree with the
constant term required to be zero; the inverse Fourier swap is encoded as
three consecutive fourier entries.  Certificate document::

    {"word": [...], "q": ["c0", ...], "side": "x"|"d"}

Generation-witness document, the output of ``ccr --generators``::

    {"word": [...], "a": "p/q", "b": "p/q", "r": ["c0", ...]}

The entry kinds, the number of fourier entries per swap and the variable a
shift polynomial is printed in are read from the generator classes in
``automorphism``, which own them; this module tests only a generator's
family (shift or swap) and raises on anything else.

Serializing then parsing gives back elements, words and certificates, save
that each ``FourierInverse`` returns as three ``Fourier`` entries, which act
the same; parsing then serializing gives back what serializing wrote.

Every coefficient string is printed from its integer pair, a numerator over
a positive denominator, by ``poly._format_ratio``: reduced by one ``gcd`` to
``p/q``, or ``p`` when the denominator reduces to 1, as ``str`` of a
``Fraction`` prints it, with no ``Fraction`` built.  ``dumps`` writes a
document as text for the command line, byte for byte as
``json.dumps(doc, indent=2)`` does, in one recursive pass that appends to
one list; the standard library's indented encoder runs through nested
generators in pure Python.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List

from .automorphism import Fourier, Generator, ShiftD, ShiftX, _Shift, _Swap
from .descent import (
    Certificate,
    NotStrictlyNilpotent,
    StageRecord,
    StrictlyNilpotent,
    TriviallyConstant,
    Verdict,
)
from .element import WeylElement
from .errors import WireFormatError
from .exprs import MAX_EXPONENT
from .filtration import format_bivariate
from .poly import UniPoly, _format_ratio

_RATIONAL = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")
_SHIFTS = {cls.kind: cls for cls in (ShiftX, ShiftD)}


def _coeff_from_str(s) -> Fraction:
    if not isinstance(s, str) or not _RATIONAL.match(s):
        raise WireFormatError(f"coefficient must be a rational string 'p' or 'p/q', got {s!r}")
    try:
        return Fraction(s)
    except ValueError:  # more digits than int converts
        raise WireFormatError("coefficient has too many digits") from None


def element_to_doc(e: WeylElement) -> dict:
    nums, den = e.nums, e.den
    terms = [{"xexp": i, "dexp": j, "coeff": _format_ratio(nums[(i, j)], den)} for i, j in sorted(nums)]
    return {"side": e.side, "terms": terms}


def element_from_doc(doc) -> WeylElement:
    if not isinstance(doc, dict) or set(doc) != {"side", "terms"}:
        raise WireFormatError("element document must have exactly 'side' and 'terms'")
    side = doc["side"]
    if side not in ("x", "z"):
        raise WireFormatError(f"element side must be 'x' or 'z', got {side!r}")
    if not isinstance(doc["terms"], list):
        raise WireFormatError("element terms must be a list")
    terms = {}
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"xexp", "dexp", "coeff"}:
            raise WireFormatError("term entry must have exactly xexp, dexp, coeff")
        i, j = entry["xexp"], entry["dexp"]
        # a JSON boolean decodes to a bool, which is an int subclass
        if not all(type(n) is int and n >= 0 for n in (i, j)):
            raise WireFormatError("term exponents must be nonnegative integers")
        if max(i, j) > MAX_EXPONENT:
            raise WireFormatError(f"term exponent overflow (limit {MAX_EXPONENT})")
        if (i, j) in terms:
            raise WireFormatError(f"duplicate term ({i}, {j})")
        terms[(i, j)] = _coeff_from_str(entry["coeff"])
    return WeylElement(terms, side)


def _poly_to_strings(p: UniPoly) -> List[str]:
    if p.is_zero():
        return ["0"]
    den = p.den
    return [_format_ratio(n, den) for n in p.nums]


def _poly_from_strings(items, *, zero_constant: bool) -> UniPoly:
    if not isinstance(items, list) or not items:
        raise WireFormatError("polynomial must be a nonempty list of coefficient strings")
    coeffs = [_coeff_from_str(s) for s in items]
    if zero_constant and coeffs[0] != 0:
        raise WireFormatError("shift polynomial requires constant term '0'")
    return UniPoly(coeffs)


def word_to_doc(word) -> list:
    out = []
    for gen in word:
        if isinstance(gen, _Shift):
            out.append({"kind": gen.kind, "poly": _poly_to_strings(gen.poly)})
        elif isinstance(gen, _Swap):
            # the inverse swap is the threefold swap
            out.extend({"kind": gen.kind} for _ in range(gen.turns))
        else:
            raise WireFormatError(f"unknown generator {gen!r}")
    return out


def word_from_doc(doc) -> tuple:
    if not isinstance(doc, list):
        raise WireFormatError("word document must be a list")
    word: List[Generator] = []
    for entry in doc:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise WireFormatError("word entry must be an object with a 'kind'")
        kind = entry["kind"]
        if kind == Fourier.kind:
            if set(entry) - {"kind"}:
                raise WireFormatError("fourier entry carries no other fields")
            word.append(Fourier())
        elif isinstance(kind, str) and kind in _SHIFTS:
            if set(entry) != {"kind", "poly"}:
                raise WireFormatError("shift entry must have exactly 'kind' and 'poly'")
            word.append(_SHIFTS[kind](_poly_from_strings(entry["poly"], zero_constant=True)))
        else:
            raise WireFormatError(f"unknown generator kind {kind!r}")
    return tuple(word)


def certificate_to_doc(cert: Certificate) -> dict:
    return {
        "word": word_to_doc(cert.word),
        "q": _poly_to_strings(cert.gen_poly),
        "side": cert.side,
    }


def witness_to_doc(witness) -> dict:
    return {
        "word": word_to_doc(witness.word),
        "a": str(witness.a),
        "b": str(witness.b),
        "r": _poly_to_strings(witness.tail),
    }


def certificate_from_doc(doc) -> Certificate:
    if not isinstance(doc, dict) or set(doc) != {"word", "q", "side"}:
        raise WireFormatError("certificate document must have exactly word, q, side")
    side = doc["side"]
    if side not in ("x", "d"):
        raise WireFormatError(f"certificate side must be 'x' or 'd', got {side!r}")
    q = _poly_from_strings(doc["q"], zero_constant=False)
    if q.is_constant():
        raise WireFormatError("certificate polynomial must be nonconstant")
    return Certificate(word_from_doc(doc["word"]), q, side)


def _describe_generator(gen: Generator) -> str:
    if isinstance(gen, _Shift):
        return f"{gen.kind}({gen.poly.format(gen.letter)})"
    if isinstance(gen, _Swap):
        return gen.kind if gen.turns == 1 else f"{gen.kind}^-1"
    raise TypeError(f"unknown generator {gen!r}")


def _stage_to_doc(stage: int, rec: StageRecord) -> dict:
    """The one place a descent stage is rendered as text."""
    form = rec.form
    # a stage's top-weight part (Y^r - c*X)^k ends at X^k
    k = form.multiplicity
    return {
        "stage": stage,
        "order": rec.newton.assoc.order,
        "weight": list(rec.newton.weight.as_tuple()),
        "value": rec.newton.value,
        "support_point": [k, 0],
        "assoc": format_bivariate(rec.newton.assoc),
        "form": {
            # a stage's form has no Y power since factor_form rejects one;
            # the field stays, so every certified document is unchanged
            "y_power": 0,
            "ratio": form.ratio,
            "multiplicity": form.multiplicity,
            "scale": str(form.scale),
        },
        "shift_image": str(rec.shift_image),
        "generators": [_describe_generator(g) for g in rec.generators],
        "scale": _format_ratio(form.scale.numerator**k, form.scale.denominator**k),
        "order_after": k,
    }


def _prologue_to_doc(verdict) -> List[str]:
    """The notes on what ``decide`` did before stage 1; a stage-0 rejection has none."""
    if isinstance(verdict, StrictlyNilpotent) and not (verdict.prologue or verdict.stages):
        alone = "coordinate" if verdict.certificate.side == "x" else "derivative"
        return [f"input is a polynomial in the {alone} alone"]
    if isinstance(verdict, NotStrictlyNilpotent) and verdict.stage == 0:
        return []
    notes = []
    lead = verdict.lead
    if lead != 1:
        # 1/lead, over a positive denominator
        sign = -1 if lead < 0 else 1
        notes.append(f"scaled monic by {_format_ratio(sign * lead.denominator, abs(lead.numerator))}")
    # the prologue is the normalizing shift, if one was needed
    notes += [f"next-to-top coefficient cleared by {_describe_generator(g)}" for g in verdict.prologue]
    return notes + ["stagewise soundness uses invariance of the nilpotency class under the generator maps"]


def verdict_to_doc(verdict: Verdict) -> dict:
    if isinstance(verdict, TriviallyConstant):
        return {"verdict": "trivially-constant", "value": str(verdict.value)}
    if isinstance(verdict, StrictlyNilpotent):
        doc = {"verdict": "strictly-nilpotent", "certificate": certificate_to_doc(verdict.certificate)}
    elif isinstance(verdict, NotStrictlyNilpotent):
        diag = verdict.diagnostic
        doc = {
            "verdict": "not-strictly-nilpotent",
            "reason": verdict.reason.value,
            "stage": verdict.stage,
            "detail": diag.message if diag else "top coefficient in D is nonconstant",
        }
    else:
        raise TypeError(f"unknown verdict {verdict!r}")
    stages = [_stage_to_doc(i, r) for i, r in enumerate(verdict.stages, 1)]
    return {**doc, "prologue": _prologue_to_doc(verdict), "stages": stages}


def dumps(doc) -> str:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it.

    ``doc`` is a tree of dicts with string keys, lists, strings, ints,
    bools and ``None``; anything else raises ``TypeError``, a key through
    ``encode_basestring_ascii``.  An int past the interpreter's digit limit
    raises the ``ValueError`` of ``int.__repr__``, as ``json.dumps`` does.
    """
    out: List[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(o, newline: str, out: List[str]) -> None:
    """Append ``o``'s text to ``out``; ``newline`` is the line break and
    indentation that ``o`` itself starts on."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
