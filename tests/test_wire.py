"""JSON document round trips and schema validation."""

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from weylnil import (
    Certificate,
    Fourier,
    FourierInverse,
    ShiftD,
    ShiftX,
    UniPoly,
    Weight,
    WireFormatError,
    apply_word,
    decide,
    generators,
    parse_expression,
)
from weylnil.poly import _format_ratio
from weylnil.wire import (
    _describe_generator,
    certificate_from_doc,
    certificate_to_doc,
    dumps,
    element_from_doc,
    element_to_doc,
    verdict_to_doc,
    word_from_doc,
    word_to_doc,
)

from conftest import rand_word, weyl_elements

x, d = generators()


@given(e=weyl_elements(max_terms=6, max_exp=5))
def test_element_document_round_trip(e):
    doc = element_to_doc(e)
    assert element_from_doc(doc) == e
    assert element_to_doc(element_from_doc(doc)) == doc


def test_element_document_is_sorted_with_string_coeffs():
    doc = element_to_doc(x * d + d**3 / 2)
    assert doc == {
        "side": "x",
        "terms": [
            {"xexp": 0, "dexp": 3, "coeff": "1/2"},
            {"xexp": 1, "dexp": 1, "coeff": "1"},
        ],
    }


def test_element_document_validation():
    with pytest.raises(WireFormatError):
        element_from_doc({"side": "y", "terms": []})
    with pytest.raises(WireFormatError):
        element_from_doc({"side": "x", "terms": [{"xexp": -1, "dexp": 0, "coeff": "1"}]})
    with pytest.raises(WireFormatError):
        element_from_doc({"side": "x", "terms": [{"xexp": 0, "dexp": 0, "coeff": "1.5"}]})
    with pytest.raises(WireFormatError):
        element_from_doc({"side": "x"})


@pytest.mark.parametrize("xexp, dexp", [("true", "false"), ("1", "true"), ("false", "0")])
def test_element_document_rejects_boolean_exponents(xexp, dexp):
    text = f'{{"side": "x", "terms": [{{"xexp": {xexp}, "dexp": {dexp}, "coeff": "2"}}]}}'
    with pytest.raises(WireFormatError):
        element_from_doc(json.loads(text))


@pytest.mark.parametrize("xexp, dexp", [(4097, 0), (0, 4097), (10**6, 10**6)])
def test_element_document_rejects_exponents_above_the_parser_cap(xexp, dexp):
    with pytest.raises(WireFormatError):
        element_from_doc({"side": "x", "terms": [{"xexp": xexp, "dexp": dexp, "coeff": "1"}]})


def test_element_document_accepts_exponents_at_the_parser_cap():
    doc = {"side": "x", "terms": [{"xexp": 4096, "dexp": 4096, "coeff": "1"}]}
    assert element_from_doc(doc) == parse_expression("x^4096*D^4096")


@pytest.mark.parametrize("coeff", ["1/0", "-3/00", "0/0"])
def test_documents_reject_zero_denominators(coeff):
    with pytest.raises(WireFormatError):
        element_from_doc({"side": "x", "terms": [{"xexp": 0, "dexp": 1, "coeff": coeff}]})
    with pytest.raises(WireFormatError):
        word_from_doc([{"kind": "shiftD", "poly": ["0", coeff]}])
    with pytest.raises(WireFormatError):
        certificate_from_doc({"word": [], "q": ["0", coeff], "side": "d"})


@pytest.mark.parametrize("coeff", ["1" * 5000, "1/" + "3" * 5000], ids=["numerator", "denominator"])
@pytest.mark.parametrize(
    "decode, wrap",
    [
        (element_from_doc, lambda c: {"side": "x", "terms": [{"xexp": 0, "dexp": 1, "coeff": c}]}),
        (word_from_doc, lambda c: [{"kind": "shiftD", "poly": ["0", c]}]),
        (certificate_from_doc, lambda c: {"word": [], "q": ["0", c], "side": "d"}),
    ],
    ids=["element", "word", "certificate"],
)
def test_documents_reject_over_long_coefficients(decode, wrap, coeff):
    # past Python's limit on integer-string conversion
    with pytest.raises(WireFormatError, match="too many digits"):
        decode(wrap(coeff))


@pytest.mark.parametrize(
    "decode, doc, message",
    [
        (element_from_doc, {"side": "x", "terms": {}}, "element terms must be a list"),
        (element_from_doc, {"side": "x", "terms": [{"xexp": 0, "dexp": 1}]}, "term entry must have"),
        (
            element_from_doc,
            {"side": "x", "terms": [{"xexp": 0, "dexp": 1, "coeff": "1"}] * 2},
            r"duplicate term \(0, 1\)",
        ),
        (word_from_doc, [{"kind": "shiftD", "poly": []}], "polynomial must be a nonempty list"),
        (certificate_from_doc, {"word": [], "q": "0 1", "side": "d"}, "polynomial must be a nonempty list"),
        (word_from_doc, {"kind": "fourier"}, "word document must be a list"),
        (word_from_doc, ["fourier"], "word entry must be an object with a 'kind'"),
        (word_from_doc, [{"poly": ["0", "1"]}], "word entry must be an object with a 'kind'"),
        (word_from_doc, [{"kind": "fourier", "poly": ["0"]}], "fourier entry carries no other fields"),
        # a JSON list or object is unhashable, so it must not reach a dict lookup
        (word_from_doc, [{"kind": ["shiftX"], "poly": ["0", "1"]}], r"unknown generator kind \['shiftX'\]"),
    ],
    ids=[
        "terms-not-list",
        "term-keys",
        "duplicate-term",
        "empty-poly",
        "non-list-poly",
        "word-not-list",
        "entry-not-object",
        "entry-without-kind",
        "fourier-extra-field",
        "unhashable-kind",
    ],
)
def test_malformed_document_shapes(decode, doc, message):
    with pytest.raises(WireFormatError, match=message):
        decode(doc)


def test_documents_accept_denominators_with_leading_zeros():
    doc = {"side": "x", "terms": [{"xexp": 0, "dexp": 1, "coeff": "3/06"}]}
    assert element_from_doc(doc) == d / 2


def test_word_document_round_trip_seeded():
    rng = random.Random(17)
    for _ in range(25):
        word = rand_word(rng)
        doc = word_to_doc(word)
        back = word_from_doc(doc)
        assert word_to_doc(back) == doc
        e = x**2 * d + 1
        assert apply_word(back, e) == apply_word(word, e)


def test_word_document_shift_shape():
    word = (ShiftX(UniPoly((0, 0, 0, Fraction(1, 3)))),)
    assert word_to_doc(word) == [{"kind": "shiftX", "poly": ["0", "0", "0", "1/3"]}]


def test_word_document_inverse_fourier_is_threefold():
    doc = word_to_doc((FourierInverse(),))
    assert doc == [{"kind": "fourier"}] * 3
    back = word_from_doc(doc)
    assert apply_word(back, x) == apply_word((FourierInverse(),), x)


def test_word_document_requires_zero_constant():
    with pytest.raises(WireFormatError):
        word_from_doc([{"kind": "shiftD", "poly": ["1", "0", "2"]}])
    with pytest.raises(WireFormatError):
        word_from_doc([{"kind": "spin"}])
    with pytest.raises(WireFormatError):
        word_from_doc([{"kind": "shiftX"}])


@pytest.mark.parametrize(
    "gen, text",
    [
        (ShiftX(UniPoly((0, 0, 0, Fraction(1, 3)))), "shiftX(1/3*D^3)"),
        (ShiftD(UniPoly((0, -1, 0, 2))), "shiftD(2*x^3 - x)"),
        (Fourier(), "fourier"),
        (FourierInverse(), "fourier^-1"),
    ],
    ids=["shiftX", "shiftD", "fourier", "fourier-inverse"],
)
def test_describe_generator_per_family(gen, text):
    assert _describe_generator(gen) == text


def test_certificate_document_round_trip():
    cert = Certificate(
        (ShiftD(UniPoly((0, 0, 0, Fraction(1, 3)))), Fourier()),
        UniPoly((0, 0, 1)),
        "d",
    )
    doc = certificate_to_doc(cert)
    assert doc["side"] == "d"
    assert doc["q"] == ["0", "0", "1"]
    assert certificate_from_doc(doc) == cert
    assert certificate_to_doc(certificate_from_doc(doc)) == doc


def test_certificate_document_validation():
    with pytest.raises(WireFormatError):
        certificate_from_doc({"word": [], "q": ["1"], "side": "d"})  # constant q
    with pytest.raises(WireFormatError):
        certificate_from_doc({"word": [], "q": ["0", "1"], "side": "z"})
    with pytest.raises(WireFormatError):
        certificate_from_doc({"word": [], "q": ["0", "1"]})


def test_verdict_documents():
    from weylnil import WeylElement

    pos = verdict_to_doc(decide(d**2 - x))
    assert pos["verdict"] == "strictly-nilpotent"
    assert pos["stages"][0]["assoc"] == "Y^2 - X"
    neg = verdict_to_doc(decide(x * d))
    assert neg["verdict"] == "not-strictly-nilpotent"
    assert neg["reason"] == "nonconstant-leading"
    const = verdict_to_doc(decide(WeylElement.scalar(5)))
    assert const == {"verdict": "trivially-constant", "value": "5"}


@pytest.mark.parametrize(
    "encode, value, error",
    [
        (word_to_doc, [object()], WireFormatError),
        (verdict_to_doc, object(), TypeError),
        (_describe_generator, Weight(2, 1), TypeError),
    ],
    ids=["word", "verdict", "describe"],
)
def test_encoders_reject_unknown_values(encode, value, error):
    with pytest.raises(error, match="unknown"):
        encode(value)


def test_coefficients_print_as_fraction_strings():
    pairs = [(n, q) for n in (0, 1, -1, 2, -6, 9, 10**30 + 2) for q in (1, 2, 3, 6, 4 * 10**30)]
    for n, q in pairs:
        assert _format_ratio(n, q) == str(Fraction(n, q)), (n, q)


@pytest.mark.parametrize(
    "text",
    ["-3/2*D^2 + x", "(D^2 - 2/3*x)^2", "-2/5*(D^3 - 7/3*x)^2", "(D^2 + 2/3*x)^3 + x", "-4*(D^2 - 5*x)^2 + 2/7*x*D"],
)
def test_verdict_scales_print_as_fraction_strings(text):
    # the monic scaling note and each stage's scale^k, against the Fraction
    # arithmetic they are printed without
    verdict = decide(parse_expression(text))
    doc = verdict_to_doc(verdict)
    notes = [note for note in doc["prologue"] if note.startswith("scaled monic by ")]
    assert notes == ([] if verdict.lead == 1 else [f"scaled monic by {1 / verdict.lead}"])
    for rec, stage in zip(verdict.stages, doc["stages"], strict=True):
        assert stage["scale"] == str(rec.form.scale**rec.form.multiplicity)


EDGE_STRING = "quote \" backslash \\ newline \n tab \t control \x01 accent é partial ∂"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"empty": {}, "none": [], "nested": [{}, [], [[]], {"a": {}}]},
        [[], {}, [[]]],
        EDGE_STRING,
        {EDGE_STRING: [EDGE_STRING, ""]},
        [0, -7, 10**100],
        {"int": 0, "negative": -7, "big": 10**100},
        [True, False, None],
        {"true": True, "false": False, "null": None},
        0,
        True,
        None,
    ],
    ids=[
        "empty-dict",
        "empty-list",
        "nested-empty-dicts",
        "nested-empty-lists",
        "escaped-string",
        "escaped-key",
        "list-ints",
        "dict-ints",
        "list-constants",
        "dict-constants",
        "int",
        "bool",
        "none",
    ],
)
def test_dumps_writes_what_json_dumps_writes(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [Fraction(1, 2), [0.5], {"a": {"b": Fraction(1, 3)}}, {1: "a"}, {None: "a"}, ("a",)],
    ids=["fraction", "float", "nested-fraction", "int-key", "none-key", "tuple"],
)
def test_dumps_rejects_other_values(doc):
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the int-to-str digit limit needs Python 3.10.7+"
)
def test_dumps_fails_on_a_long_int_exactly_as_json_dumps():
    doc = {"n": [-(10**4300)]}  # 4301 digits
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError) as ours:
            dumps(doc)
        with pytest.raises(ValueError) as theirs:
            json.dumps(doc, indent=2)
        assert str(ours.value) == str(theirs.value)
        sys.set_int_max_str_digits(4301)
        assert dumps(doc) == json.dumps(doc, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
