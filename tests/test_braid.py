import random

import pytest

from qcoideal.braid import (
    BraidOperator,
    _image_E,
    apply_braid,
    apply_word,
    braid_T,
    inverse_word,
)
from qcoideal.cartan import CartanDatum, cartan_datum, validate_admissible
from qcoideal.grammar import parse_element
from qcoideal.memos import MEMOS
from qcoideal.scalars import ONE, Scalar, qfact
from qcoideal.suites import run_suite
from qcoideal.uqg import Element, bar_element, equals, sigma

Q = Scalar.q_pow(1)
A2 = cartan_datum("A", 2)


def test_twist_of_adjacent_generator():
    got = apply_braid(braid_T(A2, 2), Element.E(A2, 1))
    expect = Element.E(A2, 2) * Element.E(A2, 1) - (
        Element.E(A2, 1) * Element.E(A2, 2)
    ).scale(Q ** -1)
    assert equals(got, expect)


def test_composite_matches_weyl_compatibility():
    # s_1 s_2 (alpha_1) = alpha_2, so T_1 T_2 (E_1) = E_2
    got = apply_word((1, 2), Element.E(A2, 1))
    assert equals(got, Element.E(A2, 2))


def test_torus_part_reflects():
    beta = (2, -1)
    got = apply_braid(braid_T(A2, 1), Element.K(A2, beta))
    assert got == Element.K(A2, A2.reflect(1, beta))


def test_divided_power_formula_doubly_laced():
    b2 = cartan_datum("B", 2)
    # a_21 = -2: image of E_1 under the node-2 operator has three terms
    got = apply_braid(braid_T(b2, 2), Element.E(b2, 1))
    eps2 = b2.epsilon(2)
    expect = Element.zero(b2)
    for r in range(3):
        s = 2 - r
        coeff = (qfact(s, eps2) * qfact(r, eps2)).inverse() * Scalar.q_pow(-eps2 * r)
        if r % 2:
            coeff = -coeff
        word = (2,) * s + (1,) + (2,) * r
        expect = expect + Element.monomial(b2, word, b2.zero_vector(), (), coeff)
    assert got == expect
    pair = validate_admissible(b2, {2}, {1: 1, 2: 2})
    assert equals(apply_word(pair.wX_word, Element.E(b2, 1)), got)


def test_long_word_images_are_built_iteratively():
    # a word image is built one suffix length at a time, so the length of an
    # input word is not bounded by the interpreter's recursion limit
    a3 = CartanDatum(cartan_datum("A", 3).A)
    x = Element.E(a3, *(3,) * 1200)
    assert apply_braid(braid_T(a3, 1), x) == x


def test_apply_word_checks_reducedness():
    with pytest.raises(ValueError, match="not reduced"):
        apply_word((1, 1), Element.E(A2, 1))


def test_word_independence_of_parabolic_longest():
    a3 = cartan_datum("A", 3)
    w1, w2 = (1, 2, 1), (2, 1, 2)
    assert a3.is_reduced(w1) and a3.is_reduced(w2)
    for g in (Element.E(a3, 1), Element.E(a3, 3), Element.F(a3, 2)):
        assert equals(apply_word(w1, g), apply_word(w2, g))


def test_braid_operator_is_an_immutable_value():
    """T''_{i,1} by default; equal by value with equal hashes, immutable,
    printed with its fields, and inverse() is an involution."""
    op = BraidOperator(1)
    assert op == BraidOperator(1, True, 1) == BraidOperator(i=1, double_prime=True, e=1)
    assert hash(op) == hash(BraidOperator(1, True, 1))
    assert op != BraidOperator(1, False, 1) and op != BraidOperator(1, True, -1)
    with pytest.raises(AttributeError):
        op.e = -1
    assert repr(op) == "BraidOperator(i=1, double_prime=True, e=1)"
    assert op.inverse() == BraidOperator(1, False, -1)
    for dp in (True, False):
        for e in (1, -1):
            other = BraidOperator(2, dp, e)
            assert other.inverse().inverse() == other


def test_braid_operator_refuses_a_sign_other_than_one_or_minus_one():
    """Lusztig's T'_{i,e} and T''_{i,e} take e = 1 or -1 (e = 2 used to map
    E_2 to E[1,2] - v^-4 E[2,1] on A2), and the family is a bool."""
    for e in (2, 0, -2, 1.0, True):
        with pytest.raises(ValueError, match="sign"):
            BraidOperator(1, True, e)
    for dp in (1, 0, None, "yes"):
        with pytest.raises(ValueError, match="double_prime"):
            BraidOperator(1, dp, -1)
    with pytest.raises(ValueError, match="sign"):
        BraidOperator(i=1, e=2)
    with pytest.raises(ValueError, match="sign"):
        BraidOperator(1)._replace(e=2)
    with pytest.raises(ValueError, match="double_prime"):
        BraidOperator._make((1, 1, 1))


def test_braid_relations_rank2():
    for datum in (CartanDatum([[2, 0], [0, 2]]), A2, cartan_datum("B", 2)):
        m = datum.coxeter_m(1, 2)
        w1 = tuple(1 if t % 2 == 0 else 2 for t in range(m))
        w2 = tuple(2 if t % 2 == 0 else 1 for t in range(m))
        for i in datum.labels:
            for g in (Element.E(datum, i), Element.F(datum, i), Element.K_i(datum, i)):
                assert equals(apply_word(w1, g), apply_word(w2, g))


def test_mutual_inverses():
    rng = random.Random(3)
    gens = [Element.E(A2, 1), Element.F(A2, 2), Element.K_i(A2, 1),
            Element.E(A2, 2) * Element.F(A2, 1)]
    for i in (1, 2):
        for e in (1, -1):
            op = BraidOperator(i, True, e)
            inv = op.inverse()
            for g in gens:
                assert equals(apply_braid(inv, apply_braid(op, g)), g)
                assert equals(apply_braid(op, apply_braid(inv, g)), g)
    x = Element.E(A2, 1) * Element.E(A2, 2)
    assert equals(inverse_word((1, 2), apply_word((1, 2), x)), x)


def test_sigma_conjugation():
    rng = random.Random(5)
    gens = [Element.E(A2, 1), Element.F(A2, 1), Element.E(A2, 2) * Element.E(A2, 1)]
    for i in (1, 2):
        for x in gens:
            lhs = apply_braid(braid_T(A2, i), sigma(x))
            rhs = sigma(apply_braid(BraidOperator(i, False, -1), x))
            assert equals(lhs, rhs)


def test_bar_conjugation():
    for i in (1, 2):
        for e in (1, -1):
            for x in (Element.E(A2, 1), Element.F(A2, 2), Element.K_i(A2, 1).scale(Q)):
                for dp in (True, False):
                    lhs = bar_element(apply_braid(BraidOperator(i, dp, e), x))
                    rhs = apply_braid(BraidOperator(i, dp, -e), bar_element(x))
                    assert equals(lhs, rhs)


def test_family_weight_twist():
    b2 = cartan_datum("B", 2)
    for datum in (A2, b2):
        for i in datum.labels:
            for u in (Element.E(datum, 1) * Element.E(datum, 2), Element.F(datum, 2)):
                key = next(iter(u.terms))
                deg = u.degree_of_key(key)
                n2 = datum.bilinear(datum.simple_root(i), deg)
                assert n2 % datum.epsilon(i) == 0
                n = n2 // datum.epsilon(i)
                for e in (1, -1):
                    rhs = apply_braid(BraidOperator(i, False, e), u).scale(
                        Scalar.q_pow(datum.epsilon(i)) ** (e * n)
                    )
                    if n % 2:
                        rhs = -rhs
                    assert equals(apply_braid(BraidOperator(i, True, e), u), rhs)


def test_grading_moves_by_reflection():
    tw = apply_braid(braid_T(A2, 2), Element.E(A2, 1))
    target = A2.reflect(2, A2.simple_root(1))
    assert all(tw.degree_of_key(k) == target for k in tw.terms)


# T_{i,e}(F_j) as literal elements, written out independently of the
# E-images they are now mirrored from: (type, i, j, double_prime, e) -> image
F_IMAGES = {
    ("A", 1, 2, True, 1): "F[1,2] * (-v^2) + F[2,1] * (1)",
    ("A", 1, 2, True, -1): "F[1,2] * (-v^-2) + F[2,1] * (1)",
    ("A", 1, 2, False, 1): "F[1,2] * (1) + F[2,1] * (-v^-2)",
    ("A", 1, 2, False, -1): "F[1,2] * (1) + F[2,1] * (-v^2)",
    ("A", 1, 1, True, 1): "E[1] K{1:-1} * (-v^-4)",
    ("A", 1, 1, True, -1): "E[1] K{1:1} * (-v^4)",
    ("A", 1, 1, False, 1): "E[1] K{1:-1} * (-1)",
    ("A", 1, 1, False, -1): "E[1] K{1:1} * (-1)",
    ("B", 1, 2, True, 1): "F[1,2] * (-v^4) + F[2,1] * (1)",
    ("B", 1, 2, True, -1): "F[1,2] * (-v^-4) + F[2,1] * (1)",
    ("B", 1, 2, False, 1): "F[1,2] * (1) + F[2,1] * (-v^-4)",
    ("B", 1, 2, False, -1): "F[1,2] * (1) + F[2,1] * (-v^4)",
    ("B", 2, 1, True, 1): "F[1,2,2] * (v^2/(v^4 + 1)) + F[2,1,2] * (-v^2)"
                          " + F[2,2,1] * (v^6/(v^4 + 1))",
    ("B", 2, 1, True, -1): "F[1,2,2] * (v^2/(v^4 + 1)) + F[2,1,2] * (-v^-2)"
                           " + F[2,2,1] * (v^-2/(v^4 + 1))",
    ("B", 2, 1, False, 1): "F[1,2,2] * (v^-2/(v^4 + 1)) + F[2,1,2] * (-v^-2)"
                           " + F[2,2,1] * (v^2/(v^4 + 1))",
    ("B", 2, 1, False, -1): "F[1,2,2] * (v^6/(v^4 + 1)) + F[2,1,2] * (-v^2)"
                            " + F[2,2,1] * (v^2/(v^4 + 1))",
}


@pytest.mark.parametrize("kind, i, j, dp, e", sorted(F_IMAGES))
def test_f_images_are_pinned(kind, i, j, dp, e):
    datum = cartan_datum(kind, 2)
    got = apply_braid(BraidOperator(i, dp, e), Element.F(datum, j))
    assert got == parse_element(datum, F_IMAGES[kind, i, j, dp, e])


def _reference_braid(op, a):
    """The operator as the product of its generator images, rebuilt for
    every monomial with the coefficient multiplied in first: no memo."""
    datum = a.datum

    def image(kind, j):
        if kind == "E":
            return _image_E(datum, op.i, op.e, op.double_prime, j)
        mirror = _image_E(datum, op.i, -op.e, op.double_prime, j).terms
        return Element(datum, {(f[::-1], k, w[::-1]): c for (w, k, f), c in mirror.items()})

    out = Element.zero(datum)
    for (e_word, k, f_word), c in a.terms.items():
        prod = Element.unit(datum, c)
        for letter in e_word:
            prod = prod * image("E", letter)
        if any(k):
            prod = prod * Element.K(datum, datum.reflect(op.i, k))
        for letter in f_word:
            prod = prod * image("F", letter)
        out = out + prod
    return out


def _random_element(datum, rng):
    coeffs = (Scalar.gaussian(1), Q, -Q ** -2, qfact(2, 1).inverse(), Scalar.gaussian(3))
    labels = datum.labels
    # one word as both E- and F-word, so an image memoised for one kind
    # would answer for the other
    w = (labels[0], labels[-1])
    out = Element.monomial(datum, w, datum.zero_vector(), w, rng.choice(coeffs))
    for _ in range(3):
        e = tuple(rng.choice(labels) for _ in range(rng.randint(0, 3)))
        f = tuple(rng.choice(labels) for _ in range(rng.randint(0, 2)))
        k = tuple(rng.randint(-1, 1) for _ in labels)
        out = out + Element.monomial(datum, e, k, f, rng.choice(coeffs))
    return out


@pytest.mark.parametrize("kind, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_memoised_images_match_per_monomial_products(kind, rank):
    # every operator runs on the same fresh datum, so each one after the
    # first finds the memo filled by the others: a memo key that lost the
    # node, the sign, the family or the kind returns a wrong image
    datum = CartanDatum(cartan_datum(kind, rank).A)
    rng = random.Random(11 * rank + ord(kind))
    elems = [_random_element(datum, rng) for _ in range(3)]
    for i in datum.labels:
        for dp in (True, False):
            for e in (1, -1):
                op = BraidOperator(i, dp, e)
                for x in elems:
                    assert apply_braid(op, x) == _reference_braid(op, x)


def _suffix_sharing_words(datum, i):
    """Eight words in i and a neighbour j that share suffixes and repeat i,
    with the empty word, so Horner's rule merges them before multiplying."""
    j = next(l for l in datum.labels if datum.a(i, l) < 0)
    return [(), (i,), (j, i), (i, i), (i, j, i), (j, j, i), (i, i, j, i), (j,), (i, j)]


def _word_sum(datum, words, k, kind):
    """sum_w c_w E_w K_k (kind "E") or c_w K_k F_w over the words, with
    coefficients that cycle through a few scalars."""
    coeffs = (ONE, -Q, Q ** -2, qfact(2, 1).inverse(), Scalar.gaussian(3), -ONE)
    out = Element.zero(datum)
    for t, w in enumerate(words):
        e, f = (w, ()) if kind == "E" else ((), w)
        out = out + Element.monomial(datum, e, k, f, coeffs[t % len(coeffs)])
    return out


@pytest.mark.parametrize("kind, rank", [("A", 2), ("B", 2), ("G", 2), ("B", 3)])
def test_suffix_sharing_sums_match_per_monomial_products(kind, rank):
    # sums of E-words, of F-words, each with the K-vectors 0 and k, and a
    # K-vector that mixes E- and F-words, under both families and signs of
    # every node; the words share suffixes and repeat the operator's node
    datum = CartanDatum(cartan_datum(kind, rank).A)
    zero = datum.zero_vector()
    k = tuple(1 if t % 2 else -1 for t in range(datum.n))
    for i in datum.labels:
        words = _suffix_sharing_words(datum, i)
        e_sum = _word_sum(datum, words, zero, "E") + _word_sum(datum, words[1:5], k, "E")
        f_sum = _word_sum(datum, words, zero, "F") + _word_sum(datum, words[3:], k, "F")
        mixed = (_word_sum(datum, words[1:4], k, "E") + _word_sum(datum, words[4:6], k, "F")
                 + Element.monomial(datum, words[2], k, words[1], Q))
        for dp in (True, False):
            for e in (1, -1):
                op = BraidOperator(i, dp, e)
                for x in (e_sum, f_sum, mixed):
                    assert apply_braid(op, x) == _reference_braid(op, x)


def test_braid_memo_holds_letter_images_only():
    """The memo holds the images of single letters, however long the words
    it meets: one entry after E_3^1200 under T_1, and only letters after
    the G2 braid relation on E_1."""
    a3 = CartanDatum(cartan_datum("A", 3).A)
    x = Element.E(a3, *(3,) * 1200)
    assert apply_braid(braid_T(a3, 1), x) == x
    assert list(a3.caches["braid"]) == [(1, 1, True, "E", 3)]
    g2 = CartanDatum(cartan_datum("G", 2).A)
    e1 = Element.E(g2, 1)
    assert equals(apply_word((1, 2) * 3, e1), apply_word((2, 1) * 3, e1))
    keys = list(g2.caches["braid"])
    assert keys and all(key[-1] in g2.labels for key in keys)


def test_pooled_coefficients_equal_to_one_are_one(fresh_memos):
    """After the braid and hopf suites on fresh named data, every pooled
    Scalar and every braid-image coefficient that equals 1 is ONE itself,
    which products pass through."""
    run_suite("braid", seed=0)
    run_suite("hopf", seed=0)
    made = MEMOS["datum"]
    ones = [c for d in made.values() for c in d.caches["pool"].values() if c == ONE]
    images = [c for d in made.values() for img in d.caches["braid"].values()
              for c in img.terms.values() if c == ONE]
    assert ones and images
    assert all(c is ONE for c in ones + images)
