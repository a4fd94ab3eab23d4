"""The names the benchmark's tracer wraps exist and are put back afterwards.

``perfbench/tracing.py`` replaces public functions and methods of the loaded
package by name, so removing or renaming one of them breaks
``perfbench/run.py --trace 1``.  The tracer is loaded from its file and not
changed.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import weylnil
import weylnil.cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every weylnil module and of the two wrapped classes."""
    owners = [m for n, m in sys.modules.items() if n == "weylnil" or n.startswith("weylnil.")]
    owners += [weylnil.WeylElement, weylnil.UniPoly]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_wraps_and_restores_the_package():
    tracer = _load_tracing().Tracer()
    before = _bindings()
    buf = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(buf):
        code = weylnil.cli.run(["decide", "--json", "D^2 - x"])
        x, d = weylnil.generators()
        product = d * x
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    assert code == 0
    assert json.loads(buf.getvalue())["verdict"] == "strictly-nilpotent"
    assert product == x * d + 1
    calls = tracer.summary()["calls"]
    for name in ("cli.run", "exprs.parse", "descent.decide", "descent.verify", "wire.to_doc"):
        assert calls[name] >= 1, name
    assert calls["element.mul"] >= 1
    assert calls["poly"] >= 1
    assert tracer.counts["descent.certified"] == calls["descent.verify"] == 1


def test_tracer_records_every_generator_family():
    # the tracer wraps automorphism.apply_generator by name and names its
    # span after the generator's class, so a renamed generator class, or an
    # application that goes around apply_generator, records no call here;
    # the Airy operator's certificate holds a ShiftX and a swap, the second
    # operator's prologue a ShiftD
    tracer = _load_tracing().Tracer()
    buf = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(buf):
        codes = [weylnil.cli.run(["decide", "--json", text]) for text in ("D^2 - x", "D^2 + 2*x*D + x^2 + 1")]
    assert codes == [0, 0]
    calls = tracer.summary()["calls"]
    for name in ("automorphism.shiftX", "automorphism.shiftD", "automorphism.fourier"):
        assert calls[name] >= 1, name
