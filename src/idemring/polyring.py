"""Polynomials over Z_n as normalized little-endian coefficient tuples.

Every polynomial product in the library goes through one kernel,
``mul_coeffs``: it multiplies two lists of residues and returns the exact
integer coefficients, which its callers (``Poly.__mul__``, ``generate``'s
matrix builder, ``classify``'s witnesses, the polynomial idempotent scan)
reduce mod n.  The canonical form is stated once: ``_strip`` drops
trailing zeros for ``Poly.__init__`` and for ``_reduced``, which builds
every arithmetic result from exact ints.
"""

from __future__ import annotations

import re

from .errors import ModulusMismatch, NotConstant, PolyParseError, UnsatisfiableParams

# The largest degree parse_poly returns and generate accepts for a parameter.
# Products this long go through Kronecker substitution, not the quadratic
# loop: with e of this degree, the slowest template's generate took 19 ms and
# its classify 37 ms over n near 10**24 (2 vCPU, Python 3.11.7).
MAX_GENERATE_DEGREE = 1000

# Shortest length of both factors at which mul_coeffs packs them into ints.
# Against the term-by-term loop at equal lengths (2 vCPU, Python 3.11.7,
# n = 385) the packed product took 3.1x the time at length 2, 1.4x at 6,
# 1.1x at 8, 0.8x at 12, 0.24x at 32 and 0.01x at 1001, with the same
# pattern at 5*7*10007, 5*7*999999999989 and n near 10**24.
KRONECKER_MIN_LENGTH = 12


def mul_coeffs(a, b, n: int) -> list[int]:
    """Exact integer coefficients of the product of two coefficient lists.

    a and b are little-endian sequences of residues in [0, n); the result
    has len(a) + len(b) - 1 entries (none when either is empty) and is
    not reduced mod n.  When both factors have at least
    KRONECKER_MIN_LENGTH coefficients, each is packed into one int at
    x = 2**(8*size), the two ints are multiplied once and the product is
    read back slot by slot (Kronecker substitution; Harvey, J. Symbolic
    Comput. 44, 2009).  A slot of size bytes holds every product
    coefficient, a sum of at most min(len(a), len(b)) terms below n**2,
    so no slot carries into the next.  A factor of length 1 is a scalar,
    and the product one pass over the other factor.
    """
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    if la == 1 or lb == 1:
        s, cs = (a[0], b) if la == 1 else (b[0], a)
        return [s * c for c in cs]
    if la < KRONECKER_MIN_LENGTH or lb < KRONECKER_MIN_LENGTH:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    out[k] += ai * bj
        return out
    size = (2 * (n - 1).bit_length() + min(la, lb).bit_length() + 7) // 8
    x, y = (int.from_bytes(b"".join([c.to_bytes(size, "little") for c in cs]), "little") for cs in (a, b))
    raw = (x * y).to_bytes((la + lb - 1) * size, "little")
    return [int.from_bytes(raw[k : k + size], "little") for k in range(0, len(raw), size)]


def _strip(cs: list) -> tuple:
    """cs without its trailing zeros, as a tuple: the last step of every
    Poly's canonical form."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Poly:
    """Element of Z_n[x].

    Coefficients are canonical residues in [0, n), index i holding the
    coefficient of x**i; the highest stored coefficient is nonzero and the
    zero polynomial is the empty tuple.  Instances are immutable by
    convention and hashable.  Ints mix freely with Poly in arithmetic.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=()):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        self.n = n
        self.coeffs = _strip([int(c) % n for c in coeffs])

    @classmethod
    def _from_canonical(cls, n: int, coeffs) -> "Poly":
        """Poly of coefficients the caller has already checked are canonical
        (ints in [0, n), no trailing zero); skips __init__'s reduction."""
        p = object.__new__(cls)
        p.n = n
        p.coeffs = tuple(coeffs)
        return p

    @property
    def degree(self):
        """Degree as an int; the zero polynomial gets float('-inf')."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def const_value(self) -> int:
        if len(self.coeffs) > 1:
            raise NotConstant(f"degree-{self.degree} polynomial has no constant value")
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _coerce(self, other):
        if isinstance(other, int):
            return _reduced(self.n, (other,))
        if isinstance(other, Poly):
            if other.n != self.n:
                raise ModulusMismatch(f"moduli differ: {self.n} vs {other.n}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _reduced(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(self.n, mul_coeffs(self.coeffs, o.coeffs, self.n))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant() and self.const_value() == other % self.n
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"Poly({self.render()!r}, mod={self.n})"

    def render(self) -> str:
        """Text form 'c0 + c1*x + c2*x^2 + ...' with zero terms dropped."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


def _reduced(n: int, ints) -> Poly:
    """Poly of the exact ints reduced mod n: __init__ without its int()
    conversion and modulus check, for the library's own results."""
    p = object.__new__(Poly)
    p.n = n
    p.coeffs = _strip([c % n for c in ints])
    return p


_TERM = re.compile(r"(?:(\d+)(?:\*?x(?:\^(\d+))?)?|x(?:\^(\d+))?)\Z")


def parse_poly(n: int, text: str) -> Poly:
    """Parse 'c0 + c1*x + c2*x^2' style text; whitespace is ignored.

    Bare 'x' and 'x^k' terms (implied coefficient 1), missing terms,
    repeated powers and leading minus signs are all accepted.  A result of
    degree above MAX_GENERATE_DEGREE raises UnsatisfiableParams before the
    dense coefficient list is built.
    """
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if "".join(tokens) != s:
        raise PolyParseError(f"cannot parse {text!r}")
    acc: dict[int, int] = {}
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        body = tok[1:]
        m = _TERM.match(body)
        if m is None:
            raise PolyParseError(f"bad term {body!r} in {text!r}")
        coeff_txt, exp_txt, bare_exp = m.groups()
        try:
            c = 1 if coeff_txt is None else int(coeff_txt)
            exp = exp_txt or bare_exp
            k = int(exp) if exp else int("x" in body)
        except ValueError as exc:  # a number past the int digit limit
            raise PolyParseError(f"bad term of {len(body)} characters: {exc}") from None
        acc[k] = acc.get(k, 0) + sign * c
    degree = max((k for k, c in acc.items() if c % n), default=-1)
    if degree > MAX_GENERATE_DEGREE:
        raise UnsatisfiableParams(f"polynomial of degree {degree} exceeds the limit {MAX_GENERATE_DEGREE}")
    vec = [0] * (degree + 1)
    for k, c in acc.items():
        if k <= degree:
            vec[k] = c
    return Poly(n, vec)
