"""README's Python quick tour runs, and each commented result holds."""

import ast
from pathlib import Path

from weylnil import (
    GenerationWitness,
    NilpotentAt,
    StrictlyNilpotent,
    UniPoly,
    parse_expression,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour():
    """Run the quick tour's statements in order in one namespace.  Returns
    each statement's trailing comment and each expression statement's
    value, both keyed by the statement's source, and the namespace."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    ns: dict = {}
    comments, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        comments[source] = lines[node.lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            values[source] = eval(source, ns)
        else:
            exec(source, ns)
    return comments, values, ns


def test_readme_quick_tour_results():
    comments, values, ns = _quick_tour()

    assert isinstance(ns["verdict"], StrictlyNilpotent)
    assert comments["verdict = decide(airy)"] == "StrictlyNilpotent"

    assert values["verify_certificate(airy, cert)"] is True
    assert comments["verify_certificate(airy, cert)"].startswith("True")

    partner = ns["partner"]
    assert partner.lambda_op == parse_expression("Dz^2 - z")
    assert partner.f_poly == UniPoly((0, 1))
    assert "Dz^2 - z" in comments["partner = bispectral_partner(airy)"]
    assert "f(z) = z" in comments["partner = bispectral_partner(airy)"]

    assert values["ad_nilpotency_test(airy, x)"] == NilpotentAt(3)
    assert comments["ad_nilpotency_test(airy, x)"] == "NilpotentAt(3)"

    witness = values["ccr_to_generators(d - x**2, x)"]
    assert isinstance(witness, GenerationWitness)
    assert (witness.a, witness.b) == (1, 0)
    assert "GenerationWitness(word, a=1, b=0" in comments["ccr_to_generators(d - x**2, x)"]
