import json
import random
from enum import IntEnum
from itertools import product

import pytest

from idemring.classify import generate, iter_constant_idempotent_entries, template_table
from idemring.errors import MatrixFormatError, ModulusMismatch
from idemring.mat2 import (
    MAX_ENTRY_DEGREE,
    MAX_GENERATE_DEGREE,
    Mat2Poly,
    idempotency_equations_hold,
    load_matrix,
    matrix_from_document,
    matrix_to_document,
    save_matrix,
)
from idemring.modarith import Modulus, factor_squarefree
from idemring.polyring import Poly

N = 385


def M(e, f, g, h, n=N):
    return Mat2Poly(Poly(n, e), Poly(n, f), Poly(n, g), Poly(n, h))


def x_general(n=N):
    # [[x, x - x^2], [1, 1 - x]]
    return M((0, 1), (0, 1, n - 1), (1,), (1, n - 1), n)


def test_identity_neutral():
    A = M((3, 2), (1,), (0, 4), (9,))
    I = Mat2Poly.identity(N)
    assert A @ I == A and I @ A == A
    Z = Mat2Poly.zero(N)
    assert Z @ A == Z


def test_product_example():
    A = M((0, 1), (), (), ())
    assert (A @ A) == M((0, 0, 1), (), (), ())


def test_det_trace():
    I = Mat2Poly.identity(N)
    assert I.det() == Poly(N, (1,)) and I.trace() == Poly(N, (2,))
    G = x_general()
    assert G.det().is_zero()
    assert G.trace() == Poly(N, (1,))
    D = Mat2Poly.from_ints(N, 155, 0, 0, 155)
    assert D.det() == Poly(N, (155,))
    assert D.trace() == Poly(N, (310,))


def test_is_idempotent_examples():
    assert Mat2Poly.identity(N).is_idempotent()
    assert x_general().is_idempotent()
    assert x_general(105).is_idempotent()
    assert Mat2Poly.from_ints(N, 1, 1, 0, 0).is_idempotent()
    assert not Mat2Poly.from_ints(N, 1, 1, 1, 0).is_idempotent()


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        Mat2Poly(Poly(105, (1,)), Poly(385, (0,)), Poly(105, (0,)), Poly(105, (1,)))
    with pytest.raises(ModulusMismatch):
        Mat2Poly.identity(105) @ Mat2Poly.identity(385)


def _random_matrix(rng, n, max_degree):
    def poly():
        return Poly(n, [rng.randrange(n) for _ in range(rng.randint(0, max_degree + 1))])

    return Mat2Poly(poly(), poly(), poly(), poly())


def _routes_agree(A) -> bool:
    """Assert the three idempotency routes agree on A; return their verdict."""
    det_trace = A.idempotent_det_trace()
    verdict = (A @ A) == A
    assert A.is_idempotent() == idempotency_equations_hold(A) == verdict == (det_trace is not None)
    if det_trace is not None:
        assert det_trace == (A.det(), A.trace())
    return verdict


def _twin(rng, A):
    """A with one coefficient of one entry changed, possibly past its degree."""
    entries = list(A.entries())
    k = rng.randrange(4)
    coeffs = list(entries[k].coeffs) + [0]
    i = rng.randrange(len(coeffs))
    coeffs[i] += rng.randrange(1, A.n)
    entries[k] = Poly(A.n, coeffs)
    return Mat2Poly(*entries)


def test_two_idempotency_routes_agree():
    rng = random.Random(11)
    for _ in range(10_000):
        _routes_agree(_random_matrix(rng, N, 3))


def test_idempotency_routes_agree_on_constant_idempotents():
    entries = list(iter_constant_idempotent_entries(Modulus(35, (5, 7))))
    assert len(entries) == 1856
    assert all(_routes_agree(Mat2Poly.from_ints(35, *entry)) for entry in entries)


@pytest.mark.parametrize("n", [385, 455, 1001])
def test_idempotency_routes_agree_on_generated_matrices(n):
    mod = factor_squarefree(n)
    rng = random.Random(n)
    for tpl in template_table(mod).values():
        for degree in range(7):
            G = generate(mod, tpl.label, seed=rng.getrandbits(32), max_degree=degree)
            assert _routes_agree(G)
            _routes_agree(_twin(rng, G))


@pytest.mark.parametrize("n", [4, 8, 12, 36])
def test_idempotency_routes_agree_with_nilpotents(n):
    # Cayley-Hamilton holds over any commutative ring, so the routes must
    # agree over Z_n[x] with nilpotents too
    if n <= 8:
        for entry in product(range(n), repeat=4):
            _routes_agree(Mat2Poly.from_ints(n, *entry))
    rng = random.Random(n)
    one = Poly(n, (1,))
    for _ in range(500):
        # v w^T with v = (1, a) and w = (1 - ab, b), so w.v = 1: rank one, idempotent
        a, b = (Poly(n, [rng.randrange(n) for _ in range(rng.randint(0, 4))]) for _ in "ab")
        ab = a * b
        G = Mat2Poly(one - ab, b, a * (one - ab), ab)
        assert _routes_agree(G)
        _routes_agree(_twin(rng, G))
        _routes_agree(_random_matrix(rng, n, 2))


def test_complement_of_idempotent_is_idempotent():
    G = x_general()
    C = Mat2Poly(1 - G.e, -G.f, -G.g, 1 - G.h)
    assert C.is_idempotent()
    assert (G @ C).det().is_zero()


def test_det_multiplicative():
    rng = random.Random(23)
    for _ in range(2000):
        A = _random_matrix(rng, N, 3)
        B = _random_matrix(rng, N, 3)
        assert (A @ B).det() == A.det() * B.det()


def test_document_round_trip(tmp_path):
    G = x_general()
    doc = matrix_to_document(G)
    assert doc == {
        "n": 385,
        "entries": [[[0, 1], [0, 1, 384]], [[1], [1, 384]]],
    }
    assert matrix_from_document(doc) == G
    path = tmp_path / "mat.json"
    save_matrix(G, path)
    assert load_matrix(path) == G
    raw = json.loads(path.read_text())
    assert raw == doc


def test_document_zero_entry_is_empty_array():
    G = Mat2Poly.zero(N)
    assert matrix_to_document(G)["entries"] == [[[], []], [[], []]]


_NOT_CANONICAL = "coefficient {} is not canonical in [0, 385)"
_BAD_DOCS = [
    ({"entries": [[[], []], [[], []]]}, "matrix document needs fields 'n' and 'entries'"),
    ({"n": 385}, "matrix document needs fields 'n' and 'entries'"),
    ({"n": 1, "entries": [[[], []], [[], []]]}, "'n' must be an integer >= 2"),
    ({"n": 385, "entries": [[[], []], [[]]]}, "'entries' must be a 2x2 array"),
    ({"n": 385, "entries": [[[0, 1, 0], []], [[], []]]}, "trailing zero coefficients are forbidden"),
    ({"n": 385, "entries": [[[385], []], [[], []]]}, _NOT_CANONICAL.format(385)),
    ({"n": 385, "entries": [[[-1], []], [[], []]]}, _NOT_CANONICAL.format(-1)),
    ({"n": 385, "entries": [[["1"], []], [[], []]]}, "coefficients must be integers"),
    # the first failing coefficient of an entry names the fault
    ({"n": 385, "entries": [[[385, "1"], []], [[], []]]}, _NOT_CANONICAL.format(385)),
    ({"n": 385, "entries": [[["1", 385], []], [[], []]]}, "coefficients must be integers"),
    ({"n": 385, "entries": [[[0, 385, 0], []], [[], []]]}, _NOT_CANONICAL.format(385)),
    ({"n": 385, "entries": [[[3, 385**2], []], [[], []]]}, _NOT_CANONICAL.format(385**2)),
    ({"n": 385, "entries": [[[True], []], [[], []]]}, "coefficients must be integers"),
    ({"n": 385, "entries": [[[1, False], []], [[], []]]}, "coefficients must be integers"),
    ({"n": 385, "entries": [[[1.0], []], [[], []]]}, "coefficients must be integers"),
    # entries are checked in reading order, each one whole before the next
    ({"n": 385, "entries": [[[1, 0], ["1"]], [[], []]]}, "trailing zero coefficients are forbidden"),
    ({"n": 385, "entries": [[[1], [2]], [[385], ["1"]]]}, _NOT_CANONICAL.format(385)),
    ({"n": 385, "entries": [[[1], 2], [[], []]]}, "each entry must be an array of coefficients"),
    ({"n": 385, "entries": [[[], []], [[], [1] * (MAX_ENTRY_DEGREE + 2)]]},
     f"entry of degree {MAX_ENTRY_DEGREE + 1} exceeds the limit {MAX_ENTRY_DEGREE}"),
    ({"n": 385, "entries": [[[], []], [[], [], []]]}, "'entries' must be a 2x2 array"),
    ({"n": 385, "entries": [[[], []], ([], [])]}, "'entries' must be a 2x2 array"),
    ({"n": 385, "entries": "[]"}, "'entries' must be a 2x2 array"),
    ({"n": True, "entries": [[[], []], [[], []]]}, "'n' must be an integer >= 2"),
    ([], "matrix document must be a JSON object"),
]


@pytest.mark.parametrize("doc, message", _BAD_DOCS, ids=[f"doc{i}" for i in range(len(_BAD_DOCS))])
def test_document_rejects_bad_shapes(doc, message):
    with pytest.raises(MatrixFormatError) as exc:
        matrix_from_document(doc)
    assert str(exc.value) == message


def test_document_accepts_int_subclasses():
    class Coeff(IntEnum):
        ONE = 1
        THREE = 3

    G = matrix_from_document({"n": N, "entries": [[[Coeff.THREE, Coeff.ONE], []], [[], [Coeff.ONE]]]})
    assert G == M([3, 1], [], [], [1])


def test_decoded_entry_is_an_ordinary_poly():
    coeffs = [[3, 0, 384], [], [1], [7, 1]]
    doc = {"n": N, "entries": [coeffs[:2], coeffs[2:]]}
    G = matrix_from_document(doc)
    for entry, cs in zip(G.entries(), coeffs):
        assert entry == Poly(N, cs) and hash(entry) == hash(Poly(N, cs))
        assert type(entry.coeffs) is tuple
    coeffs[0][0] = 5
    coeffs[0].append(1)
    assert G.e == Poly(N, (3, 0, 384))


def test_document_degree_limit():
    assert MAX_ENTRY_DEGREE == 2 * MAX_GENERATE_DEGREE
    top = [1] * (MAX_ENTRY_DEGREE + 1)
    assert matrix_from_document({"n": N, "entries": [[top, []], [[], []]]}).e.degree == MAX_ENTRY_DEGREE
    with pytest.raises(MatrixFormatError, match=f"exceeds the limit {MAX_ENTRY_DEGREE}"):
        matrix_from_document({"n": N, "entries": [[[], []], [[], top + [1]]]})


def test_generate_stays_within_the_document_limit():
    # explicit parameters at generate's limit give the longest entries it
    # can produce: the solved f = e(1-e)/g has twice e's degree
    for n in (385, 455):
        mod = factor_squarefree(n)
        e = Poly(n, [1] * (MAX_GENERATE_DEGREE + 1))
        for tpl in template_table(mod).values():
            G = generate(mod, tpl.label, e=e, m=e, seed=0)
            assert max(p.degree for p in G.entries()) <= MAX_ENTRY_DEGREE
            assert matrix_from_document(matrix_to_document(G)) == G


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)
