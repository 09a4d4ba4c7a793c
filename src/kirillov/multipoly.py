"""Polynomials over Z in the six coefficients a, b, c, d, e, f.

Just enough multivariate arithmetic to build the parametrized 7x7 matrix
symbolically, raise it to powers, and compare entries exactly.  Terms map
an exponent vector (one slot per variable, in the fixed order a..f) to a
nonzero integer coefficient.
"""

from __future__ import annotations

VARIABLES = ("a", "b", "c", "d", "e", "f")
_ZERO_EXP = (0,) * len(VARIABLES)


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for exp, coef in (terms or {}).items():
            if coef:
                cleaned[tuple(exp)] = int(coef)
        self.terms = cleaned

    @classmethod
    def constant(cls, c: int) -> "MultiPoly":
        return cls({_ZERO_EXP: c})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        i = VARIABLES.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(VARIABLES)))
        return cls({exp: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0) + coef
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({exp: -coef for exp, coef in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = MultiPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (MultiPoly, int)):
            return self.terms == _coerce(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, values, ctx=None):
        """Evaluate at a,...,f values: plain ints, or elements of ``ctx``."""
        vals = [values[name] for name in VARIABLES] \
            if isinstance(values, dict) else list(values)
        if ctx is None:
            total = 0
            for exp, coef in self.terms.items():
                term = coef
                for v, e in zip(vals, exp):
                    term *= v**e
                total += term
            return total
        total = 0  # the field encoding of zero
        for exp, coef in self.terms.items():
            term = ctx.from_int(coef)
            for v, e in zip(vals, exp):
                for _ in range(e):
                    term = ctx.mul(term, v)
            total = ctx.add(total, term)
        return total

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp in sorted(self.terms, reverse=True):
            coef = self.terms[exp]
            body = "".join(
                (name if e == 1 else f"{name}^{e}")
                for name, e in zip(VARIABLES, exp) if e
            )
            mag = abs(coef)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}{body}"
            if not chunks:
                chunks.append(piece if coef > 0 else f"-{piece}")
            else:
                chunks.append(f"+ {piece}" if coef > 0 else f"- {piece}")
        return " ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self.text()!r})"


def _coerce(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, int):
        return MultiPoly.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to MultiPoly")


A, B, C, D, E, F = (MultiPoly.variable(v) for v in VARIABLES)
ZERO = MultiPoly()
