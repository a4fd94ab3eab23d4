"""Command-line surface.

Subcommands: decide, ad, partner, ccr, polygon, apply, random, verify.
Exit codes: 0 when the computation completed (the verdict, positive or
negative, is conveyed in the output), 1 on usage or parse errors, 2 on
internal invariant violations.  Each command builds its whole output first;
it is written to stdout only on exit 0, so a failure leaves stdout empty and
one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .automorphism import apply_word
from .descent import (
    CounterexampleCandidate,
    ad_nilpotency_test,
    bispectral_partner,
    ccr_to_generators,
    decide,
    EigenObstruction,
    NilpotentAt,
    random_orbit_element,
    verify_certificate,
)
from .element import ccr_check
from .errors import InvariantViolation, NotStrictlyNilpotentError, WireFormatError
from .exprs import parse_expression
from .filtration import FormDiagnostic, associated_poly, choose_weights, factor_form, format_bivariate
from .wire import (
    certificate_from_doc,
    certificate_to_doc,
    dumps,
    element_to_doc,
    verdict_to_doc,
    witness_to_doc,
    word_from_doc,
)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # An expression such as "-3*D" or "-x*D" is a positional argument:
        # no option here is a single dash and a name other than "-h".
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _verdict_text(verdict) -> str:
    doc = verdict_to_doc(verdict)
    if "certificate" in doc:
        cert = doc["certificate"]
        doc.update(side=cert["side"], q=verdict.certificate.gen_poly.format(), word=json.dumps(cert["word"]))
    keys = ("verdict", "side", "q", "word", "reason", "stage", "detail", "value")
    lines = [f"{key}: {doc[key]}" for key in keys if key in doc]
    lines += [f"note: {line}" for line in doc.get("prologue", ())]
    lines += [
        "stage {stage}: order {order}, weight {weight}, value {value}, "
        "point {support_point}, assoc {assoc}, generators {generators}, "
        "order after {order_after}".format(**rec)
        for rec in doc.get("stages", ())
    ]
    return "\n".join(lines)


def _cmd_decide(ns) -> str:
    verdict = decide(parse_expression(ns.expr))
    return dumps(verdict_to_doc(verdict)) if ns.json else _verdict_text(verdict)


def _cmd_ad(ns) -> str:
    op = parse_expression(ns.op)
    target = parse_expression(ns.target)
    result = ad_nilpotency_test(op, target, cap=ns.max_steps)
    if isinstance(result, NilpotentAt):
        return f"nilpotent at {result.steps}"
    if isinstance(result, EigenObstruction):
        return f"eigen obstruction with eigenvalue {result.eigenvalue}"
    return f"bound exhausted at {result.cap} (last total degree {result.last_weight})"


def _cmd_partner(ns) -> str:
    e = parse_expression(ns.expr)
    try:
        partner = bispectral_partner(e)
    except NotStrictlyNilpotentError as exc:
        return "no partner: operator is not strictly nilpotent\n" + _verdict_text(exc.verdict)
    return f"lambda: {partner.lambda_op}\nf: {partner.f_poly.format('z')}\ntheta: x"


def _cmd_ccr(ns) -> str:
    a = parse_expression(ns.op)
    b = parse_expression(ns.mate)
    holds = ccr_check(a, b)
    text = f"commutator equals 1: {'true' if holds else 'false'}"
    if not ns.generators or not holds:
        return text
    outcome = ccr_to_generators(a, b)
    if isinstance(outcome, CounterexampleCandidate):
        return (
            f"{text}\ncounterexample candidate: first member rejected by the decision procedure\n"
            + dumps(verdict_to_doc(outcome.verdict))
        )
    return f"{text}\n{dumps(witness_to_doc(outcome))}"


def _cmd_polygon(ns) -> str:
    e = parse_expression(ns.expr)
    top = e.d_slice(e.order)
    if e.order < 1 or not top.is_constant():
        return "diagnostic: operator has no constant top coefficient of order >= 1"
    monic = e / top.constant_value()
    if not monic.depends_on_x():
        return "diagnostic: operator has constant coefficients; no edge to choose"
    weight = choose_weights(monic)
    nd = associated_poly(monic, weight)
    outcome = factor_form(nd)
    if isinstance(outcome, FormDiagnostic):
        last = f"diagnostic: {outcome.issue.value}: {outcome.message}"
    else:
        last = f"factored: {outcome.format()}"
    # the edge's far end, the largest key of the top-weight part
    return (
        f"weight: {weight.as_tuple()}\nvalue: {nd.value}\nsupport point: {max(nd.assoc.nums)}\n"
        f"assoc: {format_bivariate(nd.assoc)}\n{last}"
    )


def _read_json(path):
    """The decoded JSON document in the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise WireFormatError("JSON document is nested too deeply") from None


def _cmd_apply(ns) -> str:
    word = word_from_doc(_read_json(ns.word))
    return str(apply_word(word, parse_expression(ns.expr)))


def _cmd_random(ns) -> str:
    element, cert = random_orbit_element(
        ns.seed, ns.word_len, ns.max_deg, ns.max_q_deg, max_order=ns.max_order
    )
    doc = {
        "element": element_to_doc(element),
        "printed": str(element),
        "certificate": certificate_to_doc(cert),
    }
    return dumps(doc)


def _cmd_verify(ns) -> str:
    cert = certificate_from_doc(_read_json(ns.cert))
    ok = verify_certificate(parse_expression(ns.expr), cert)
    return "true" if ok else "false"


@functools.cache
def _build_parser() -> tuple[_ArgumentParser, dict[str, _ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = _ArgumentParser(prog="weylnil", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="classify an operator, producing a certificate or reason")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("ad", help="iterate the bracket of one operator on another")
    p.add_argument("op")
    p.add_argument("target")
    p.add_argument("--max-steps", type=int, default=64)
    p.set_defaults(func=_cmd_ad)

    p = sub.add_parser("partner", help="construct the spectral-side partner operator")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_partner)

    p = sub.add_parser("ccr", help="test [a, b] == 1, optionally producing a generation witness")
    p.add_argument("op")
    p.add_argument("mate")
    p.add_argument("--generators", action="store_true")
    p.set_defaults(func=_cmd_ccr)

    p = sub.add_parser("polygon", help="show Newton-edge weights and the top-weight polynomial")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("apply", help="apply an automorphism word from a JSON file")
    p.add_argument("--word", required=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("random", help="sample a certified operator deterministically")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--word-len", type=int, default=3)
    p.add_argument("--max-deg", type=int, default=5)
    p.add_argument("--max-q-deg", type=int, default=4)
    p.add_argument("--max-order", type=int, default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("verify", help="re-check a certificate from a JSON file")
    p.add_argument("--cert", required=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def run(argv=None) -> int:
    """Run one command in process, writing its output, and return its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    # A call that names a subcommand goes straight to that subcommand's
    # parser: the top-level one would only pass it the remaining arguments,
    # after a second parsing pass of its own.  Anything else (no arguments,
    # -h, an unknown name) gets the top-level help or usage error.
    command = commands.get(argv[0]) if argv else None
    try:
        ns = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(ns.func(ns))
        return 0
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
