"""2x2 matrices over Z_n[x]: arithmetic, idempotency, canonical wire format."""

from __future__ import annotations

from functools import cache

from .errors import MatrixFormatError, ModulusMismatch
from .polyring import MAX_GENERATE_DEGREE, Poly

# The entries generate solves for (f = e(1-e)/g and the like) reach twice
# that; the decoder rejects any longer entry before classify multiplies it.
MAX_ENTRY_DEGREE = 2 * MAX_GENERATE_DEGREE


class Mat2Poly:
    """Matrix [[e, f], [g, h]] with entries in Z_n[x], reading order.

    Constant matrices are just the degree-0 case; there is no separate
    type, so one equality notion covers everything.
    """

    __slots__ = ("n", "e", "f", "g", "h")

    def __init__(self, e: Poly, f: Poly, g: Poly, h: Poly):
        for entry in (f, g, h):
            if entry.n != e.n:
                raise ModulusMismatch("matrix entries over different moduli")
        self.n = e.n
        self.e, self.f, self.g, self.h = e, f, g, h

    @classmethod
    def from_ints(cls, n: int, e: int, f: int, g: int, h: int) -> "Mat2Poly":
        return cls(Poly(n, (e,)), Poly(n, (f,)), Poly(n, (g,)), Poly(n, (h,)))

    @classmethod
    @cache
    def zero(cls, n: int) -> "Mat2Poly":
        return cls.from_ints(n, 0, 0, 0, 0)

    @classmethod
    @cache
    def identity(cls, n: int) -> "Mat2Poly":
        return cls.from_ints(n, 1, 0, 0, 1)

    def entries(self) -> tuple[Poly, Poly, Poly, Poly]:
        return (self.e, self.f, self.g, self.h)

    def __matmul__(self, other):
        if not isinstance(other, Mat2Poly):
            return NotImplemented
        if other.n != self.n:
            raise ModulusMismatch(f"moduli differ: {self.n} vs {other.n}")
        return Mat2Poly(
            self.e * other.e + self.f * other.g,
            self.e * other.f + self.f * other.h,
            self.g * other.e + self.h * other.g,
            self.g * other.f + self.h * other.h,
        )

    def det(self) -> Poly:
        return self.e * self.h - self.f * self.g

    def trace(self) -> Poly:
        return self.e + self.h

    def idempotent_det_trace(self) -> tuple[Poly, Poly] | None:
        """(det, trace) when G is idempotent, else None.

        Cayley-Hamilton, G*G = t*G - d*I with t = trace and d = det, holds
        for every 2x2 matrix over a commutative ring, nilpotents included.
        So G*G = G exactly when (t - 1)*G = d*I: four products with the
        det and trace the caller wants anyway, where squaring G takes
        eight products and four sums.
        """
        d, t = self.det(), self.trace()
        s = t - 1
        if (
            (s * self.f).is_zero()
            and (s * self.g).is_zero()
            and s * self.e == d
            and s * self.h == d
        ):
            return d, t
        return None

    def is_idempotent(self) -> bool:
        """G*G = G, decided by Cayley-Hamilton (see idempotent_det_trace)."""
        return self.idempotent_det_trace() is not None

    def __eq__(self, other):
        return (
            isinstance(other, Mat2Poly)
            and self.n == other.n
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.n, self.entries()))

    def __repr__(self):
        return f"Mat2Poly({self.render()}, mod={self.n})"

    def render(self) -> str:
        return "[{}, {}; {}, {}]".format(*(p.render() for p in self.entries()))


def idempotency_equations_hold(G: Mat2Poly) -> bool:
    """Entry equations e^2+fg=e, f(e+h)=f, g(e+h)=g, fg+h^2=h, checked directly.

    Equivalent to G @ G == G and to is_idempotent's Cayley-Hamilton test;
    the three routes exist so they can be played against each other in
    tests.
    """
    t = G.e + G.h
    fg = G.f * G.g
    return (
        G.e * G.e + fg == G.e
        and G.f * t == G.f
        and G.g * t == G.g
        and fg + G.h * G.h == G.h
    )


def matrix_to_document(G: Mat2Poly) -> dict:
    """Canonical wire document: little-endian coefficient arrays, no trailing zeros."""
    return {
        "n": G.n,
        "entries": [
            [list(G.e.coeffs), list(G.f.coeffs)],
            [list(G.g.coeffs), list(G.h.coeffs)],
        ],
    }


def _entry_from_coeffs(n: int, coeffs) -> Poly:
    if not isinstance(coeffs, list):
        raise MatrixFormatError("each entry must be an array of coefficients")
    if len(coeffs) > MAX_ENTRY_DEGREE + 1:
        raise MatrixFormatError(f"entry of degree {len(coeffs) - 1} exceeds the limit {MAX_ENTRY_DEGREE}")
    for c in coeffs:
        # an exact int skips both isinstance calls; an int subclass other
        # than bool is still accepted
        if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)):
            raise MatrixFormatError("coefficients must be integers")
        if not 0 <= c < n:
            raise MatrixFormatError(f"coefficient {c} is not canonical in [0, {n})")
    if coeffs and coeffs[-1] == 0:
        raise MatrixFormatError("trailing zero coefficients are forbidden")
    return Poly._from_canonical(n, coeffs)


def matrix_from_document(doc) -> Mat2Poly:
    """Parse and validate the canonical matrix document."""
    if not isinstance(doc, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    if "n" not in doc or "entries" not in doc:
        raise MatrixFormatError("matrix document needs fields 'n' and 'entries'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise MatrixFormatError("'n' must be an integer >= 2")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != 2:
        raise MatrixFormatError("'entries' must be a 2x2 array")
    top, bottom = entries
    if not (isinstance(top, list) and len(top) == 2 and isinstance(bottom, list) and len(bottom) == 2):
        raise MatrixFormatError("'entries' must be a 2x2 array")
    return Mat2Poly(
        _entry_from_coeffs(n, top[0]),
        _entry_from_coeffs(n, top[1]),
        _entry_from_coeffs(n, bottom[0]),
        _entry_from_coeffs(n, bottom[1]),
    )


def save_matrix(G: Mat2Poly, path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fp:
        json.dump(matrix_to_document(G), fp)
        fp.write("\n")


def read_matrix(fp) -> Mat2Poly:
    """Parse a matrix document from a text stream.

    Every way the text can fail to decode is a MatrixFormatError: invalid
    JSON or UTF-8 and an integer past the digit limit are ValueErrors, and
    nesting too deep for the decoder is a RecursionError.
    """
    import json

    try:
        doc = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise MatrixFormatError(f"not valid JSON: {exc}") from exc
    return matrix_from_document(doc)


def load_matrix(path) -> Mat2Poly:
    with open(path, "r", encoding="utf-8") as fp:
        return read_matrix(fp)
