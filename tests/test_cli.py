"""Command-line behavior: outputs, exit codes, JSON pipelines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylnil
from weylnil import cli
from weylnil.cli import main, run
from weylnil.wire import certificate_from_doc, dumps, verdict_to_doc


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


AIRY_TEXT = """\
verdict: strictly-nilpotent
side: d
q: t
word: [{"kind": "shiftX", "poly": ["0", "0", "0", "-1/3"]}, {"kind": "fourier"}]
note: stagewise soundness uses invariance of the nilpotency class under the generator maps
stage 1: order 2, weight [2, 1], value 2, point [1, 0], assoc Y^2 - X, \
generators ['shiftX(1/3*D^3)', 'fourier^-1'], order after 1
"""

AIRY_DOC = {
    "verdict": "strictly-nilpotent",
    "certificate": {
        "word": [{"kind": "shiftX", "poly": ["0", "0", "0", "-1/3"]}, {"kind": "fourier"}],
        "q": ["0", "1"],
        "side": "d",
    },
    "prologue": ["stagewise soundness uses invariance of the nilpotency class under the generator maps"],
    "stages": [
        {
            "stage": 1,
            "order": 2,
            "weight": [2, 1],
            "value": 2,
            "support_point": [1, 0],
            "assoc": "Y^2 - X",
            "form": {"y_power": 0, "ratio": 2, "multiplicity": 1, "scale": "1"},
            "shift_image": "-x",
            "generators": ["shiftX(1/3*D^3)", "fourier^-1"],
            "scale": "1",
            "order_after": 1,
        }
    ],
}

QUARTIC_POLYGON = """\
weight: (2, 1)
value: 4
support point: (2, 0)
assoc: Y^4 + 2*X*Y^2 + X^2
factored: (Y^2 + X)^2
"""

SOUNDNESS_NOTE = "stagewise soundness uses invariance of the nilpotency class under the generator maps"

POSITIVE_Y_TEXT = f"""\
verdict: not-strictly-nilpotent
reason: positive-y-multiplicity
stage: 1
detail: positive Y power: the Newton edge ends at X*Y
note: {SOUNDNESS_NOTE}
"""

POSITIVE_Y_DOC = {
    "verdict": "not-strictly-nilpotent",
    "reason": "positive-y-multiplicity",
    "stage": 1,
    "detail": "positive Y power: the Newton edge ends at X*Y",
    "prologue": [SOUNDNESS_NOTE],
    "stages": [],
}

OSCILLATOR_TEXT = f"""\
verdict: not-strictly-nilpotent
reason: assoc-not-factored
stage: 1
detail: cross term at X*Y^1 absent
note: {SOUNDNESS_NOTE}
"""

EULER_TEXT = """\
verdict: not-strictly-nilpotent
reason: nonconstant-leading
stage: 0
detail: top coefficient in D is nonconstant
"""

POSITIVE_Y_POLYGON = """\
weight: (2, 1)
value: 3
support point: (1, 1)
assoc: Y^3 + X*Y
diagnostic: positive-y-power: positive Y power: the Newton edge ends at X*Y
"""


# the top coefficient in x is constant, in D it is not: no swap is taken
STAGE_ZERO_DOC = {
    "verdict": "not-strictly-nilpotent",
    "reason": "nonconstant-leading",
    "stage": 0,
    "detail": "top coefficient in D is nonconstant",
    "prologue": [],
    "stages": [],
}

COORDINATE_TEXT = """\
verdict: strictly-nilpotent
side: x
q: t^3 + 2*t
word: []
note: input is a polynomial in the coordinate alone
"""

DERIVATIVE_TEXT = """\
verdict: strictly-nilpotent
side: d
q: t^2 + t
word: []
note: input is a polynomial in the derivative alone
"""

SHIFT_ONLY_TEXT = """\
verdict: strictly-nilpotent
side: d
q: t^2
word: [{"kind": "shiftD", "poly": ["0", "0", "-1/2"]}]
note: next-to-top coefficient cleared by shiftD(1/2*x^2)
note: stagewise soundness uses invariance of the nilpotency class under the generator maps
"""

SCALED_AIRY_TEXT = """\
verdict: strictly-nilpotent
side: d
q: 3*t
word: [{"kind": "shiftX", "poly": ["0", "0", "0", "-1/3"]}, {"kind": "fourier"}]
note: scaled monic by 1/3
note: stagewise soundness uses invariance of the nilpotency class under the generator maps
stage 1: order 2, weight [2, 1], value 2, point [1, 0], assoc Y^2 - X, \
generators ['shiftX(1/3*D^3)', 'fourier^-1'], order after 1
"""


RATIONAL_AIRY_POLYGON = """\
weight: (2, 1)
value: 2
support point: (1, 0)
assoc: Y^2 - 2/3*X
factored: (Y^2 - 2/3*X)
"""

RATIONAL_SQUARE_POLYGON = """\
weight: (2, 1)
value: 4
support point: (2, 0)
assoc: Y^4 + 1/3*X*Y^2 + 1/36*X^2
factored: (Y^2 + 1/6*X)^2
"""

SCALED_OSCILLATOR_TEXT = """\
verdict: not-strictly-nilpotent
reason: assoc-not-factored
stage: 1
detail: cross term at X*Y^1 absent
note: scaled monic by 2/3
note: stagewise soundness uses invariance of the nilpotency class under the generator maps
"""

RATIONAL_SHIFT_WITNESS = {
    "word": [{"kind": "shiftD", "poly": ["0", "0", "0", "1/6"]}],
    "a": "1",
    "b": "0",
    "r": ["0"],
}


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(("decide", "D^2 - x"), AIRY_TEXT, id="decide-airy"),
        pytest.param(("decide", "--json", "D^2 - x"), json.dumps(AIRY_DOC, indent=2) + "\n", id="decide-json-airy"),
        pytest.param(("partner", "D^2 - x"), "lambda: Dz^2 - z\nf: z\ntheta: x\n", id="partner-airy"),
        pytest.param(
            ("polygon", "D^3 + 2*D"),
            "diagnostic: operator has constant coefficients; no edge to choose\n",
            id="polygon-constant-coefficients",
        ),
        pytest.param(("polygon", "D^4 + 2*x*D^2 + 2*D + x^2"), QUARTIC_POLYGON, id="polygon-quartic"),
        pytest.param(("decide", "D^3 + x*D"), POSITIVE_Y_TEXT, id="decide-positive-y"),
        pytest.param(
            ("decide", "--json", "D^3 + x*D"), json.dumps(POSITIVE_Y_DOC, indent=2) + "\n", id="decide-json-positive-y"
        ),
        pytest.param(("decide", "D^2 + x^2"), OSCILLATOR_TEXT, id="decide-oscillator"),
        pytest.param(("decide", "x*D"), EULER_TEXT, id="decide-euler"),
        pytest.param(("polygon", "D^3 + x*D"), POSITIVE_Y_POLYGON, id="polygon-positive-y"),
        pytest.param(("decide", "7/2"), "verdict: trivially-constant\nvalue: 7/2\n", id="decide-constant"),
        pytest.param(
            ("polygon", "x*D"),
            "diagnostic: operator has no constant top coefficient of order >= 1\n",
            id="polygon-nonconstant-top",
        ),
        pytest.param(
            ("decide", "--json", "x^2*D + x^3"), json.dumps(STAGE_ZERO_DOC, indent=2) + "\n", id="decide-json-stage-zero"
        ),
        pytest.param(("ad", "D", "0"), "nilpotent at 0\n", id="ad-nilpotent-at-zero"),
        pytest.param(("decide", "x^3 + 2*x"), COORDINATE_TEXT, id="decide-coordinate-alone"),
        pytest.param(("decide", "D^2 + D"), DERIVATIVE_TEXT, id="decide-derivative-alone"),
        pytest.param(("decide", "D^2 + 2*x*D + x^2 + 1"), SHIFT_ONLY_TEXT, id="decide-shift-only"),
        pytest.param(("decide", "3*D^2 - 3*x"), SCALED_AIRY_TEXT, id="decide-scaled-airy"),
        # coefficients with denominators other than 1
        pytest.param(("polygon", "D^2 - 2/3*x"), RATIONAL_AIRY_POLYGON, id="polygon-rational-airy"),
        pytest.param(("polygon", "D^4 + 1/3*x*D^2 + 1/36*x^2"), RATIONAL_SQUARE_POLYGON, id="polygon-rational-square"),
        pytest.param(("decide", "3/2*D^2 - x + 1/5*x^2"), SCALED_OSCILLATOR_TEXT, id="decide-scaled-oscillator"),
        pytest.param(
            ("ccr", "--generators", "D - 1/2*x^2", "x"),
            "commutator equals 1: true\n" + json.dumps(RATIONAL_SHIFT_WITNESS, indent=2) + "\n",
            id="ccr-generators-rational-shift",
        ),
    ],
)
def test_golden_output(capsys, argv, text):
    assert _run(capsys, *argv) == (0, text, "")


def test_decide_airy_json_pipeline(capsys, tmp_path):
    code, out, _ = _run(capsys, "decide", "D^2 - x", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "strictly-nilpotent"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc["certificate"]))
    code, out, _ = _run(capsys, "verify", "--cert", str(cert_path), "D^2 - x")
    assert code == 0
    assert out.strip() == "true"


def test_decide_text_mode(capsys):
    code, out, _ = _run(capsys, "decide", "D^2 - x")
    assert code == 0
    assert "strictly-nilpotent" in out
    assert "stage 1" in out


def test_decide_negative_verdict_exit_zero(capsys):
    code, out, _ = _run(capsys, "decide", "x*D")
    assert code == 0
    assert "not-strictly-nilpotent" in out
    assert "nonconstant-leading" in out


def test_parse_error_exit_one(capsys):
    code, _, err = _run(capsys, "decide", "D^2 -")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_one(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1


def test_ad_subcommand(capsys):
    code, out, _ = _run(capsys, "ad", "D^2 - x", "x")
    assert code == 0
    assert "nilpotent at 3" in out
    code, out, _ = _run(capsys, "ad", "x*D", "x", "--max-steps", "10")
    assert code == 0
    assert "eigen obstruction" in out


def test_partner_subcommand(capsys):
    code, out, _ = _run(capsys, "partner", "D^2 - x")
    assert code == 0
    assert "lambda: Dz^2 - z" in out
    assert "f: z" in out
    code, out, _ = _run(capsys, "partner", "x*D")
    assert code == 0
    assert "no partner" in out


def test_ccr_subcommand(capsys):
    code, out, _ = _run(capsys, "ccr", "D", "x", "--generators")
    assert code == 0
    assert "commutator equals 1: true" in out
    witness = json.loads(out.split("\n", 1)[1])
    assert witness["word"] == []
    assert witness["a"] == "1"
    code, out, _ = _run(capsys, "ccr", "D^2", "x")
    assert code == 0
    assert "false" in out


def test_polygon_subcommand(capsys):
    code, out, _ = _run(capsys, "polygon", "D^4 + 2*x*D^2 + 2*D + x^2")
    assert code == 0
    assert "weight: (2, 1)" in out
    assert "assoc: Y^4 + 2*X*Y^2 + X^2" in out
    assert "factored: (Y^2 + X)^2" in out
    code, out, _ = _run(capsys, "polygon", "D^3 + x*D")
    assert code == 0
    assert "positive-y-power" in out


def test_apply_subcommand(capsys, tmp_path):
    word_path = tmp_path / "word.json"
    word_path.write_text(json.dumps([{"kind": "shiftD", "poly": ["0", "0", "0", "-1/3"]}]))
    code, out, _ = _run(capsys, "apply", "--word", str(word_path), "D")
    assert code == 0
    assert out.strip() == "D + x^2"


def test_verify_coordinate_side_certificate(capsys, tmp_path):
    word = [{"kind": "shiftD", "poly": ["0", "0", "1"]}, {"kind": "fourier"}]
    word_path = tmp_path / "word.json"
    word_path.write_text(json.dumps(word))
    code, image, _ = _run(capsys, "apply", "--word", str(word_path), "x^3 + x")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    for side, verdict in (("x", "true"), ("d", "false")):
        cert_path.write_text(json.dumps({"word": word, "q": ["0", "1", "0", "1"], "side": side}))
        code, out, _ = _run(capsys, "verify", "--cert", str(cert_path), image.strip())
        assert (code, out) == (0, verdict + "\n")


def test_random_subcommand_emits_valid_certificate(capsys):
    code, out, _ = _run(capsys, "random", "--seed", "5", "--word-len", "2", "--max-order", "16")
    assert code == 0
    doc = json.loads(out)
    cert = certificate_from_doc(doc["certificate"])
    from weylnil import parse_expression, verify_certificate

    assert verify_certificate(parse_expression(doc["printed"]), cert)


def test_invariant_violation_exit_two(capsys, monkeypatch):
    # raised by the command, then by the descent's own re-verification:
    # exit 2, one error line and nothing on stdout
    from weylnil.errors import InvariantViolation

    def boom(_):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr("weylnil.cli.decide", boom)
    assert _run(capsys, "decide", "D^2 - x") == (2, "", "internal invariant violation: synthetic failure\n")
    monkeypatch.undo()
    monkeypatch.setattr("weylnil.descent.verify_certificate", lambda e, cert: False)
    assert _run(capsys, "decide", "D^2 - x") == (
        2,
        "",
        "internal invariant violation: assembled certificate failed re-verification\n",
    )


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    code, out, _ = _run(capsys, "decide", "D^2 - x", "--json")
    doc = json.loads(out)
    cert = doc["certificate"]
    cert["q"] = ["0", "0", "0", "1"]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, out, _ = _run(capsys, "verify", "--cert", str(cert_path), "D^2 - x")
    assert code == 0
    assert out.strip() == "false"


def test_decide_leading_minus_expression(capsys):
    code, out, _ = _run(capsys, "decide", "-3*D")
    assert code == 0
    assert "verdict: strictly-nilpotent" in out
    code, out, _ = _run(capsys, "decide", "-x*D", "--json")
    assert code == 0
    assert json.loads(out)["reason"] == "nonconstant-leading"


def test_leading_minus_on_every_expression_subcommand(capsys, tmp_path):
    word_path = tmp_path / "word.json"
    word_path.write_text(json.dumps([{"kind": "fourier"}]))
    _, out, _ = _run(capsys, "decide", "-D^2 + x", "--json")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(out)["certificate"]))
    cases = [
        (("ad", "-D^2 + x", "-x"), "nilpotent at 3"),
        (("partner", "-D^2 + x"), "lambda:"),
        (("ccr", "-D", "-x"), "commutator equals 1: true"),
        (("polygon", "-D^2 + x"), "weight:"),
        (("apply", "--word", str(word_path), "-D"), "x"),
        (("verify", "--cert", str(cert_path), "-D^2 + x"), "true"),
    ]
    for argv, expected in cases:
        code, out, err = _run(capsys, *argv)
        assert code == 0, (argv, err)
        assert expected in out, argv


def test_double_dash_still_ends_options(capsys):
    code, out, _ = _run(capsys, "decide", "--json", "--", "-3*D")
    assert code == 0
    assert json.loads(out)["verdict"] == "strictly-nilpotent"


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = _run(capsys, "decide", "--bogus", "x")
    assert code == 1
    assert "unrecognized arguments: --bogus" in err


def test_deeply_nested_input_is_parse_error(capsys):
    code, out, err = _run(capsys, "decide", "(" * 3000 + "x" + ")" * 3000)
    assert code == 1
    assert out == ""
    assert "nested deeper than" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, doc",
    [
        ("--word", [{"kind": "shiftD", "poly": ["0", "1/0"]}]),
        ("--cert", {"word": [], "q": ["0", "1/0"], "side": "d"}),
        ("--cert", {"word": [{"kind": "shiftX", "poly": ["0", "0", "2/0"]}], "q": ["0", "1"], "side": "d"}),
    ],
)
def test_zero_denominator_in_document_is_wire_error(capsys, tmp_path, flag, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = "apply" if flag == "--word" else "verify"
    code, out, err = _run(capsys, command, flag, str(path), "D")
    assert code == 1
    assert out == ""
    assert err.startswith("error: coefficient must be a rational string")
    assert "Traceback" not in err


def test_malformed_word_document_is_wire_error(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps([{"kind": "fourier", "poly": ["0"]}]))
    code, out, err = _run(capsys, "apply", "--word", str(path), "D")
    assert code == 1
    assert out == ""
    assert err == "error: fourier entry carries no other fields\n"


@pytest.mark.parametrize("command, flag", [("apply", "--word"), ("verify", "--cert")])
def test_deeply_nested_document_is_wire_error(capsys, tmp_path, command, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = _run(capsys, command, flag, str(path), "D")
    assert code == 1
    assert out == ""
    assert err == "error: JSON document is nested too deeply\n"


@pytest.mark.parametrize("expr, code", [("-3*D", 0), ("x +", 1)])
def test_console_entry_point_exit_code(capsys, monkeypatch, expr, code):
    monkeypatch.setattr("sys.argv", ["weylnil", "decide", expr])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == code
    assert "Traceback" not in capsys.readouterr().err


def test_module_entry_point_runs_the_command():
    # python -m weylnil.cli must run the command, not only import the module
    src = str(Path(weylnil.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def module_run(expr):
        argv = [sys.executable, "-m", "weylnil.cli", "decide", expr]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)

    ok = module_run("-3*D")
    assert ok.returncode == 0
    assert ok.stdout.startswith("verdict: strictly-nilpotent\n")
    bad = module_run("x +")
    assert bad.returncode == 1
    assert bad.stdout == "" and bad.stderr.startswith("error: ")


def test_repeated_runs_share_no_state(capsys):
    # the argument parser is built once per process; no call may see the
    # options of an earlier one
    code, out, _ = _run(capsys, "decide", "--json", "D^2 - x")
    assert code == 0
    assert json.loads(out)["verdict"] == "strictly-nilpotent"
    code, out, _ = _run(capsys, "decide", "x*D")
    assert code == 0
    assert out.startswith("verdict: not-strictly-nilpotent")
    assert _run(capsys, "decide", "--bogus", "x")[0] == 1
    assert _run(capsys, "decide", "D")[0] == 0
    code, out, _ = _run(capsys, "ad", "x^3*D", "D", "--max-steps", "3")
    assert out.strip().startswith("bound exhausted at 3 ")
    code, out, _ = _run(capsys, "ad", "x^3*D", "D")
    assert code == 0
    assert out.strip().startswith("bound exhausted at 64 ")


def test_random_without_a_draw_in_the_order_bound_exits_one(capsys):
    code, out, err = _run(capsys, "random", "--seed", "1", "--max-order", "0")
    assert (code, out) == (1, "")
    assert err == "error: no draw satisfied the order bound; relax max_order\n"


def test_ccr_generators_reports_a_counterexample_candidate(capsys, monkeypatch):
    # a real candidate would refute the Dixmier conjecture, so one is faked
    from weylnil import CounterexampleCandidate, decide, parse_expression
    from weylnil.wire import verdict_to_doc

    verdict = decide(parse_expression("x*D"))
    monkeypatch.setattr("weylnil.cli.ccr_to_generators", lambda a, b: CounterexampleCandidate(verdict))
    code, out, _ = _run(capsys, "ccr", "D", "x", "--generators")
    assert code == 0
    assert out == (
        "commutator equals 1: true\n"
        "counterexample candidate: first member rejected by the decision procedure\n"
        + json.dumps(verdict_to_doc(verdict), indent=2)
        + "\n"
    )


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the int-to-str digit limit needs Python 3.10.7+"
)
@pytest.mark.parametrize(
    "argv",
    [
        ("partner", "7^4096*7^4096*(D^2 - x)"),
        ("ccr", "7^4096*7^4096*D", "1/7^4096*1/7^4096*x", "--generators"),
        ("polygon", "D^2 + 7^4096*7^4096*x"),
    ],
)
def test_failure_after_the_first_line_writes_no_output(capsys, argv):
    # each command prints a first line, then a coefficient past the
    # 4300-digit int-to-str limit fails: stdout must stay empty
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = _run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _z_side(text):
    return text.replace("x", "z").replace("D", "Dz")


def test_z_side_input_decides_like_its_x_side_twin(capsys):
    # the same operator written in z and Dz: same exit codes, the same
    # polygon output, and the same verdict once the shift images are renamed
    texts = ["x*D", "D^2 + x^2", "D^2 + 5*x^2", "D^3 + x*D", "x^2*D^2", "D^2 - x", "D^4 + 2*x*D^2 + 2*D + x^2"]
    operators = [weylnil.parse_expression(text) for text in texts]
    for seed in range(1, 101):
        element, _ = weylnil.random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16)
        operators.append(element)
    for text in map(str, operators):
        z_text = _z_side(text)
        code, out, _ = _run(capsys, "decide", "--json", "--", text)
        z_code, z_out, _ = _run(capsys, "decide", "--json", "--", z_text)
        assert z_code == code, text
        if code == 0:
            doc = json.loads(out)
            for stage in doc.get("stages", ()):
                stage["shift_image"] = _z_side(stage["shift_image"])
            assert json.loads(z_out) == doc, text
        assert _run(capsys, "polygon", "--", z_text) == _run(capsys, "polygon", "--", text), text


# one valid call per subcommand; apply and verify name files that parsing
# does not open
VALID_ARGV = [
    ("decide", "--json", "--", "-3*D"),
    ("ad", "x*D", "-x", "--max-steps", "10"),
    ("partner", "D^2 - x"),
    ("ccr", "D - x^2", "x", "--generators"),
    ("polygon", "-D^2 + x"),
    ("apply", "--word", "word.json", "D"),
    ("random", "--seed", "7", "--max-order", "16"),
    ("verify", "-D", "--cert", "cert.json"),
]


def test_every_subcommand_has_a_valid_call():
    assert sorted(cli._build_parser()[1]) == sorted(argv[0] for argv in VALID_ARGV)


@pytest.mark.parametrize("argv", VALID_ARGV, ids=[argv[0] for argv in VALID_ARGV])
def test_subcommand_parser_reads_what_the_top_level_parser_reads(argv):
    # run parses a call that names a subcommand with that subcommand's own
    # parser; the top-level parser adds only the command name
    parser, commands = cli._build_parser()
    top = vars(parser.parse_args(argv))
    assert top.pop("command") == argv[0]
    assert vars(commands[argv[0]].parse_args(argv[1:])) == top


def _outcome(capsys, argv):
    """Exit code (or the SystemExit of a help request), stdout and stderr of one run."""
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        ((), 1),
        (("frobnicate",), 1),
        (("frobnicate", "x"), 1),
        (("-h",), ("SystemExit", 0)),
        (("--help",), ("SystemExit", 0)),
        (("decide",), 1),
        (("decide", "--bogus", "x"), 1),
        (("decide", "-h"), ("SystemExit", 0)),
        (("decide", "--help"), ("SystemExit", 0)),
        (("decide", "-3*D"), 0),
        (("decide", "--", "-3*D"), 0),
        (("decide", "--json", "x", "y"), 1),
    ],
    ids=[
        "no-arguments",
        "unknown-command",
        "unknown-command-with-argument",
        "top-level-h",
        "top-level-help",
        "decide-no-expression",
        "decide-unknown-flag",
        "decide-h",
        "decide-help",
        "decide-leading-minus",
        "decide-double-dash",
        "decide-extra-argument",
    ],
)
def test_usage_paths_match_the_top_level_parser(capsys, monkeypatch, argv, code):
    # the same call once more with every argument list handed to the
    # top-level parser: the same exit code, help text and error line
    direct = _outcome(capsys, argv)
    assert direct[0] == code
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert _outcome(capsys, argv) == direct


def test_shared_encoder_writes_what_json_dumps_writes(capsys):
    docs = [AIRY_DOC, POSITIVE_Y_DOC, STAGE_ZERO_DOC, RATIONAL_SHIFT_WITNESS]
    for seed in range(1, 21):
        element, _ = weylnil.random_orbit_element(seed, word_len=seed % 4, max_deg=5, max_q_deg=4, max_order=16)
        docs.append(verdict_to_doc(weylnil.decide(element)))
    for seed in (5, 7):
        code, out, _ = _run(capsys, "random", "--seed", str(seed), "--max-order", "16")
        assert code == 0
        docs.append(json.loads(out))
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=2)
