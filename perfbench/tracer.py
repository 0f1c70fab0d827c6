"""Per-layer tracing of superalg, installed from outside the package.

The tracer wraps public functions and methods of each superalg module and
records a span per call: id, name, start, end, parent span and pass id.
The package itself is not changed.  A wrapped name is replaced at every
binding inside the package, not only in its defining module:
`from .x import f` copies `f` into the importing module, so
`torus.poly_gcd` and `_polytools.poly_gcd` are two bindings of one function.

Q(i) scalar operations run hundreds of thousands of times per pass, so they
are counted, not spanned; their time stays in the self time of the span
that called them.

Spans stay in memory until the pass ends; `aggregate` sums them per name
and `write_spans` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path).  A path "Class.method" wraps the
# method in the class dict, together with every alias of it there (such as
# __radd__ = __add__).  Several paths may share one span name.
SPANS = [
    ("liealg.build_gl", "superalg.liealg", "build_gl"),
    ("liealg.check_jacobi", "superalg.liealg", "check_jacobi"),
    ("pbw.normalize_terms", "superalg.pbw", "normalize_terms"),
    ("pbw.is_central", "superalg.pbw", "is_central"),
    ("pbw.gelfand_invariant", "superalg.pbw", "gelfand_invariant"),
    ("pbw.casimir2", "superalg.pbw", "casimir2"),
    ("smash.coproduct", "superalg.smash", "coproduct"),
    ("smash.tensor_mul", "superalg.smash", "TensorElement.__mul__"),
    ("smash.smash_multiply", "superalg.smash", "smash_multiply"),
    ("smash.antipode", "superalg.smash", "antipode"),
    ("smash.gamma_via_sdet", "superalg.smash", "gamma_via_sdet"),
    ("linalg.mat_mul", "superalg.linalg", "mat_mul"),
    ("linalg.inv", "superalg.linalg", "inv"),
    ("supermatrix.berezinian", "superalg.supermatrix", "SuperMatrix.berezinian"),
    ("torus.eval", "superalg.torus", "LaurentPoly.eval"),
    ("torus.eval", "superalg.torus", "TorusRational.eval"),
    ("torus.arith", "superalg.torus", "TorusRational.__add__"),
    ("torus.arith", "superalg.torus", "TorusRational.__neg__"),
    ("torus.arith", "superalg.torus", "TorusRational.__sub__"),
    ("torus.arith", "superalg.torus", "TorusRational.__rsub__"),
    ("torus.arith", "superalg.torus", "TorusRational.__mul__"),
    ("torus.arith", "superalg.torus", "TorusRational.inverse"),
    ("torus.arith", "superalg.torus", "TorusRational.__truediv__"),
    ("torus.arith", "superalg.torus", "TorusRational.__rtruediv__"),
    ("torus.arith", "superalg.torus", "TorusRational.__pow__"),
    ("torus.arith", "superalg.torus", "TorusRational.derive"),
    ("torus.sqrt_scalar_free", "superalg.torus", "sqrt_scalar_free"),
    ("polytools.gcd", "superalg._polytools", "poly_gcd"),
    ("polytools.div", "superalg._polytools", "poly_div_exact"),
    ("polytools.factor", "superalg._polytools", "poly_factors"),
    ("radial.gamma_closed_form", "superalg.radial", "gamma_closed_form"),
    ("radial.check_gamma_oracle", "superalg.radial", "check_gamma_oracle"),
    ("radial.certify", "superalg.radial", "RadialOperator.certify"),
    ("radial.extract_P", "superalg.radial", "extract_P"),
    ("radial.leading_term_match", "superalg.radial", "leading_term_match"),
    ("jstruct.validate_J", "superalg.jstruct", "validate_J"),
    ("jstruct.nijenhuis_report", "superalg.jstruct", "nijenhuis_report"),
    ("jstruct.complexify", "superalg.jstruct", "complexify"),
]

# Counted, not spanned: (counter, module, attribute path).
COUNTS = [
    ("liealg.bracket.calls", "superalg.liealg", "LieSuperalgebra.bracket"),
    ("scalars.mul.calls", "superalg.scalars", "GaussianRational.__mul__"),
    ("scalars.add.calls", "superalg.scalars", "GaussianRational.__add__"),
    ("scalars.div.calls", "superalg.scalars", "GaussianRational.__truediv__"),
    ("scalars.div.calls", "superalg.scalars", "GaussianRational.__rtruediv__"),
]

CAPTURE_EVERY = 64  # keep one GaussianRational.__mul__ operand pair in 64
CAPTURE_MAX = 4096


def package_namespaces():
    """Every superalg module and every class defined in one."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "superalg"]
    classes = [
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__ == m.__name__
    ]
    return modules + classes


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path below a module."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _function(value):
    return value.__func__ if isinstance(value, classmethod) else value


def _bindings(owner, attr):
    """Every (namespace, name) in superalg that binds the object at
    owner.attr: module globals for a function, class-dict aliases for a
    method."""
    target = _function(vars(owner)[attr])
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = [s for s in package_namespaces() if not isinstance(s, type)]
    for space in spaces:
        for name, value in list(vars(space).items()):
            if _function(value) is target:
                yield space, name


class Tracer:
    """Spans and counters for one pass.  `install` patches every binding of
    every traced name; `uninstall` puts back the original objects."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans = []  # (span id, name, start, end, parent id, pass id)
        self.counts = Counter()
        self.maxima = Counter()
        self.pairs = []  # captured GaussianRational.__mul__ operand pairs
        self._stack = []  # open spans: (span id, name)
        self._next_id = 0
        self._saved = []  # (namespace, name, original value)
        self._after = {
            "pbw.normalize_terms": self._after_normalize,
            "polytools.gcd": self._after_gcd,
            "torus.arith": self._after_arith,
        }

    # -- spans -----------------------------------------------------------

    def open(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        return span_id, name, parent, time.perf_counter()

    def close(self, token):
        end = time.perf_counter()
        span_id, name, parent, start = token
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.pass_id))

    def _span_wrapper(self, name, fn):
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- per-layer counts --------------------------------------------------

    def _after_normalize(self, args, result):
        self.counts["pbw.normalize_terms.terms_in"] += len(args[1])
        self.counts["pbw.normalize_terms.terms_out"] += len(result)

    def _after_gcd(self, args, result):
        if len(result) == 1 and not any(next(iter(result))):
            self.counts["polytools.gcd.unit"] += 1

    def _after_arith(self, args, result):
        num = getattr(result, "num", None)
        if num is not None:
            size = max(len(num.terms), len(result.den.terms))
            if size > self.maxima["torus.max_terms"]:
                self.maxima["torus.max_terms"] = size

    def _counter(self, key, fn):
        counts = self.counts
        if not key.startswith("scalars."):

            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper
        maxima, pairs = self.maxima, self.pairs
        capture = key == "scalars.mul.calls"

        def scalar_wrapper(a, b):
            counts[key] += 1
            result = fn(a, b)
            if result is NotImplemented:
                return result
            re, im = result.re, result.im
            bits = max(
                re.numerator.bit_length(),
                re.denominator.bit_length(),
                im.numerator.bit_length(),
                im.denominator.bit_length(),
            )
            if bits > maxima["scalars.max_bits"]:
                maxima["scalars.max_bits"] = bits
            if (
                capture
                and type(b) is type(a)
                and counts[key] % CAPTURE_EVERY == 0
                and len(pairs) < CAPTURE_MAX
            ):
                pairs.append((a, b))
            return result

        return scalar_wrapper

    def _sympy_gcd(self, fn):
        """Count sympy Poly.gcd calls made by poly_gcd, split by domain."""

        def wrapper(poly, *args, **kwargs):
            if self._stack and self._stack[-1][1] == "polytools.gcd":
                key = {"QQ": "qq", "QQ_I": "qq_i"}.get(str(poly.domain), "other")
                self.counts[f"polytools.gcd.{key}.calls"] += 1
            return fn(poly, *args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        wrapper.perfbench_wrapper = True
        replacement = classmethod(wrapper) if isinstance(original, classmethod) else wrapper
        for space, name in list(_bindings(owner, attr)):
            self._saved.append((space, name, vars(space)[name]))
            setattr(space, name, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        import superalg.cli  # noqa: F401  (loads every module that binds a traced name)
        from sympy import Poly

        for name, module, path in SPANS:
            owner, attr = _resolve(module, path)
            if getattr(_function(vars(owner)[attr]), "perfbench_wrapper", False):
                continue  # an alias of a method wrapped on an earlier row
            self._patch(owner, attr, self._span_wrapper(name, _function(vars(owner)[attr])))
        for key, module, path in COUNTS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self._counter(key, vars(owner)[attr]))
        self._saved.append((Poly, "gcd", vars(Poly)["gcd"]))
        Poly.gcd = self._sympy_gcd(vars(Poly)["gcd"])

    def uninstall(self):
        for space, name, original in reversed(self._saved):
            setattr(space, name, original)
        self._saved = []

    # -- results ---------------------------------------------------------

    def aggregate(self):
        """span name -> [calls, self seconds, total seconds]."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += (end - start) - child[span_id]
            row[2] += end - start
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, pass_id in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "pass": pass_id}
                fh.write(json.dumps(record) + "\n")
