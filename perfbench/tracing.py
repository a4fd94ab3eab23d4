"""Spans around weylnil's public functions, recorded from outside the package.

``Tracer.installed`` replaces the public functions and methods that callers
reach with wrappers that record a span (name, start, end, parent span,
operation id) and a few exact work counts, and puts the originals back on
exit.  Module-level functions are replaced under every name that binds them
in a ``weylnil`` module, so ``from .descent import decide`` inside
``weylnil.cli`` is traced too.  Nothing is wrapped unless a tracer is
installed, and no program source is changed.

Span names are ``<layer>.<function>``; ``summary`` turns the spans into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

# UniPoly methods that compute something; the whole class is one span group.
POLY_METHODS = (
    "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__call__", "derivative", "antiderivative", "drop_constant", "format",
)

# (module, function, span name) for the module-level functions that are traced.
FUNCTIONS = (
    ("filtration", "choose_weights", "filtration.choose_weights"),
    ("filtration", "associated_poly", "filtration.associated_poly"),
    ("filtration", "factor_form", "filtration.factor_form"),
    ("filtration", "weight_value", "filtration.weight_value"),
    ("descent", "decide", "descent.decide"),
    ("descent", "normalize_subleading", "descent.normalize"),
    ("descent", "descent_step", "descent.step"),
    ("descent", "verify_certificate", "descent.verify"),
    ("descent", "bispectral_partner", "descent.partner"),
    ("descent", "centralizer_generator", "descent.centralizer"),
    ("descent", "ccr_to_generators", "descent.ccr"),
    ("exprs", "parse_expression", "exprs.parse"),
    ("wire", "verdict_to_doc", "wire.to_doc"),
    ("wire", "certificate_to_doc", "wire.to_doc"),
    ("wire", "word_to_doc", "wire.to_doc"),
    ("wire", "element_to_doc", "wire.to_doc"),
    ("wire", "certificate_from_doc", "wire.from_doc"),
    ("wire", "word_from_doc", "wire.from_doc"),
    ("wire", "element_from_doc", "wire.from_doc"),
    ("cli", "run", "cli.run"),
)

GENERATOR_SPANS = {
    "ShiftX": "automorphism.shiftX",
    "ShiftD": "automorphism.shiftD",
    "Fourier": "automorphism.fourier",
    "FourierInverse": "automorphism.fourier",
}


def _coeff_bits(element) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in element.terms.values()),
        default=0,
    )


class Tracer:
    """In-memory span store; one instance per traced phase."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index or -1, op id]
        self.spans = []
        self._stack = []
        self.op = -1
        self.counts = Counter()
        self.coeff_bits_max = 0

    def _wrap(self, fn, name_of, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_of(args), clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(span[0], args, result)
            return result

        return wrapper

    # -- work counts taken from results -------------------------------------

    def _on_mul(self, name, args, result):
        if hasattr(result, "terms"):
            self.counts["element.mul.terms_out"] += len(result.terms)
            self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))

    def _on_generator(self, name, args, result):
        self.counts[name + ".terms_out"] += len(result.terms)

    def _on_decide(self, name, args, result):
        # certified verdicts that need the descent, hence a verification;
        # decide certifies a polynomial in one generator without one
        element = args[0]
        if type(result).__name__ == "StrictlyNilpotent" and element.depends_on_x() and element.depends_on_d():
            self.counts["descent.certified"] += 1

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced callables of the loaded weylnil; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "weylnil" or n.startswith("weylnil.")]
        pkg = sys.modules["weylnil"]
        undo = []

        def patch_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))

        def patch_method(cls, attr, wrapper):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

        mul = pkg.WeylElement.__dict__["__mul__"]
        patch_method(pkg.WeylElement, "__mul__", self._wrap(mul, lambda a: "element.mul", self._on_mul))
        for attr in POLY_METHODS:
            patch_method(pkg.UniPoly, attr, self._wrap(pkg.UniPoly.__dict__[attr], lambda a: "poly"))
        apply_generator = pkg.automorphism.apply_generator
        patch_everywhere(
            apply_generator,
            self._wrap(apply_generator, lambda a: GENERATOR_SPANS[type(a[0]).__name__], self._on_generator),
        )
        for module_name, attr, name in FUNCTIONS:
            original = getattr(getattr(pkg, module_name), attr)
            hook = self._on_decide if name == "descent.decide" else None
            patch_everywhere(original, self._wrap(original, lambda a, n=name: n, hook))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-group call counts, self time and inclusive time, plus counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, incl_ns = Counter(), Counter(), Counter()
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[idx]
            # inclusive time counts only the outermost span of a nested group
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                incl_ns[name] += end - start
        return {
            "calls": calls,
            "self_s": Counter({k: v / 1e9 for k, v in self_ns.items()}),
            "incl_s": Counter({k: v / 1e9 for k, v in incl_ns.items()}),
            "counts": self.counts,
        }

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id", "parent", "op", "name", "start_ns", "end_ns"]\n')
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, op, name, start, end]) + "\n")
