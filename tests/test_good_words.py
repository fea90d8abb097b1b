"""Leclerc's good words and the zero walk restricted to them.

In finite type U^+ embeds in the quantum shuffle algebra (Rosso), and the
lexicographically largest word of any nonzero element's image is a good word
(Leclerc, Math. Z. 246, 2004).  The zero walk therefore deletes letters only
along prefixes of good words.  These tests pin the tables against the
literature, witness with an independent rank computation that the good-word
coordinates decide zero, and compare the restricted walk with the
exhaustive one.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest

from qcoideal import uqg
from qcoideal.cartan import cartan_datum, positive_parabolic_roots
from qcoideal.scalars import ONE, Scalar
from qcoideal.suites import ATLAS_DATA
from qcoideal.uqg import (
    Element,
    _good_lyndon,
    _good_prefixes,
    _tensor_of_elements,
    coproduct,
    is_zero,
    serre_polynomial,
    tensor_is_zero,
    word_weight,
)

Q = Scalar.q_pow(1)


def _lyndon_words(datum):
    """Good Lyndon words as {root: word of labels}."""
    return {
        beta: tuple(datum.labels[p] for p in w)
        for beta, w in _good_lyndon(datum).items()
    }


def _good_words(datum, nu):
    return {w for w in _good_prefixes(datum, nu) if len(w) == sum(nu)}


def _kostant(datum, nu):
    """The number of ways to write nu as a sum of positive roots."""
    roots = positive_parabolic_roots(datum, datum.labels)

    @lru_cache(maxsize=None)
    def count(rest, start):
        if not any(rest):
            return 1
        total = 0
        for t in range(start, len(roots)):
            left = tuple(r - b for r, b in zip(rest, roots[t]))
            if min(left) >= 0:
                total += count(left, t)
        return total

    return count(tuple(nu), 0)


def _small_weights(datum, top=2, heights=(2, 3, 4)):
    return [nu for nu in product(range(top + 1), repeat=datum.n) if sum(nu) in heights]


def _words(datum, nu):
    letters = [lab for lab, c in zip(datum.labels, nu) for _ in range(c)]
    return sorted(set(permutations(letters)))


# ---------------------------------------------------------------------------
# The tables.
# ---------------------------------------------------------------------------

def test_good_lyndon_words_match_the_literature():
    a2 = cartan_datum("A", 2)
    assert set(_lyndon_words(a2).values()) == {(1,), (2,), (1, 2)}
    # in B2 and G2 node 2 is the short root
    b2 = _lyndon_words(cartan_datum("B", 2))
    assert b2[(1, 2)] == (1, 2, 2)
    g2 = _lyndon_words(cartan_datum("G", 2))
    assert g2[(1, 3)] == (1, 2, 2, 2)
    assert g2[(2, 3)] == (1, 2, 1, 2, 2)  # Leclerc's example
    # one weakly decreasing product of Lyndon words per Kostant partition:
    # 12122, 1222.1, 122.12, 2.122.1, 2.12.12, 2.2.12.1 and 2.2.2.1.1
    assert _good_words(cartan_datum("G", 2), (2, 3)) == {
        (1, 2, 1, 2, 2), (1, 2, 2, 2, 1), (1, 2, 2, 1, 2), (2, 1, 2, 2, 1),
        (2, 1, 2, 1, 2), (2, 2, 1, 2, 1), (2, 2, 2, 1, 1),
    }


def test_good_word_count_is_the_kostant_partition_count():
    assert len(_good_words(cartan_datum("D", 4), (2, 3, 2, 2))) == 79
    assert len(_good_words(cartan_datum("G", 2), (2, 3))) == 7
    assert _good_words(cartan_datum("A", 2), (1, 1)) == {(1, 2), (2, 1)}
    for kind, rank in ATLAS_DATA:
        datum = cartan_datum(kind, rank)
        for nu in _small_weights(datum, heights=range(1, 6)):
            words = _good_words(datum, nu)
            assert len(words) == _kostant(datum, nu), (kind, rank, nu)
            assert all(word_weight(datum, w) == nu for w in words)


def test_every_prefix_of_a_good_word_is_good():
    for kind, rank in ATLAS_DATA:
        datum = cartan_datum(kind, rank)
        for nu in _small_weights(datum, heights=range(1, 6)):
            for p in _good_prefixes(datum, nu):
                if p:
                    assert p in _good_words(datum, word_weight(datum, p)), (kind, rank, p)


def test_infinite_type_has_no_table():
    affine = cartan_datum("affine:A", 1)
    assert _good_prefixes(affine, (1, 1)) is None
    assert _good_prefixes(cartan_datum("affine:A", 2), (1, 1, 1)) is None


# ---------------------------------------------------------------------------
# An independent witness: the good-word coordinates reach the full rank.
# ---------------------------------------------------------------------------

V = Fraction(3, 2)


def _coordinate_function(datum):
    """The deletion coordinate at v = 3/2: delete the dual word's letters
    from the left, each with v^{2 (alpha_i, wt(letters before it))}."""

    def pairing(i, j):
        return datum.gram[datum.pos(i)][datum.pos(j)]

    @lru_cache(maxsize=None)
    def coord(word, dual):
        if not dual:
            return Fraction(1)
        i = dual[0]
        total = Fraction(0)
        for pos, letter in enumerate(word):
            if letter == i:
                x = sum(2 * pairing(i, j) for j in word[:pos])
                total += V ** x * coord(word[:pos] + word[pos + 1:], dual[1:])
        return total

    return coord


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] / top[c]
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


LARGER_WEIGHTS = {
    ("D", 4): (1, 2, 1, 1),
    ("G", 2): (2, 3),
    ("B", 3): (1, 2, 2),
    ("C", 3): (2, 2, 1),
    ("B", 2): (2, 3),
}


@pytest.mark.parametrize("kind, rank", ATLAS_DATA, ids=[f"{k}{r}" for k, r in ATLAS_DATA])
def test_good_word_coordinates_reach_the_full_rank(kind, rank):
    datum = cartan_datum(kind, rank)
    coord = _coordinate_function(datum)
    weights = _small_weights(datum)
    if (kind, rank) in LARGER_WEIGHTS:
        weights.append(LARGER_WEIGHTS[(kind, rank)])
    for nu in weights:
        words = _words(datum, nu)
        good = sorted(_good_words(datum, nu))
        full = _rank([[coord(w, d) for d in words] for w in words])
        restricted = _rank([[coord(w, d) for d in good] for w in words])
        assert restricted == full == len(good), (kind, rank, nu)
    if (kind, rank) == ("D", 4):
        nu = LARGER_WEIGHTS[("D", 4)]
        assert (len(_words(datum, nu)), len(_good_words(datum, nu))) == (60, 15)


# ---------------------------------------------------------------------------
# The restricted walk against the exhaustive walk.
# ---------------------------------------------------------------------------

DIFFERENTIAL_DATA = (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4))


def _random_word(rng, datum, length):
    return tuple(rng.choice(datum.labels) for _ in range(length))


def _random_element(rng, datum, terms=4):
    """A combination of monomials of one E-weight, one torus part and one
    F-weight, so that its terms share a bucket."""
    e = _random_word(rng, datum, rng.randint(0, 3))
    f = _random_word(rng, datum, rng.randint(0, 2))
    k = tuple(rng.randint(-1, 1) for _ in range(datum.n))
    out = Element.zero(datum)
    for _ in range(terms):
        ee = tuple(rng.sample(e, len(e)))
        ff = tuple(rng.sample(f, len(f)))
        c = Scalar.q_pow(rng.randint(-2, 2)) * Scalar.gaussian(rng.choice((1, -1, 2)))
        out = out + Element.monomial(datum, ee, k, ff, c)
    return out


def _near_zero(rng, datum):
    """Zero elements built from Serre polynomials, each also with one
    monomial of the same degree added."""
    i, j = rng.sample(datum.labels, 2)
    serre_e = serre_polynomial(datum, i, j, Element.E(datum, i), Element.E(datum, j))
    serre_f = serre_polynomial(datum, i, j, Element.F(datum, i), Element.F(datum, j))
    x = Element.E(datum, rng.choice(datum.labels)) * Element.F(datum, rng.choice(datum.labels))
    zeros = [serre_e, serre_f, serre_e * x, x * serre_f, serre_e * serre_f]
    out = []
    for z in zeros:
        (e, k, f), _c = next(iter(z.terms.items()))
        e = tuple(rng.sample(e, len(e)))
        out += [z, z + Element.monomial(datum, e, k, f, Scalar.q_pow(rng.randint(-2, 2)))]
    return out


def _samples(rng, datum):
    elements = _near_zero(rng, datum) + [_random_element(rng, datum) for _ in range(6)]
    tensors = [_tensor_of_elements([x]) for x in elements]
    tensors += [
        _tensor_of_elements([_random_element(rng, datum, 2), x]) for x in elements[:4]
    ]
    tensors += [
        _tensor_of_elements([x, _random_element(rng, datum, 2)]) for x in elements[:4]
    ]
    i, j = rng.sample(datum.labels, 2)
    serre = serre_polynomial(datum, i, j, Element.E(datum, i), Element.E(datum, j))
    delta = coproduct(serre)
    (m1, m2), _c = next(iter(delta.terms.items()))
    tensors += [delta, delta + _tensor_of_elements(
        [Element(datum, {m1: ONE}), Element(datum, {m2: Q})])]
    return elements, tensors


@pytest.mark.parametrize(
    "kind, rank", DIFFERENTIAL_DATA, ids=[f"{k}{r}" for k, r in DIFFERENTIAL_DATA]
)
def test_restricted_walk_agrees_with_the_exhaustive_walk(monkeypatch, kind, rank):
    rng = random.Random(f"{kind}{rank}")
    datum = cartan_datum(kind, rank)
    elements, tensors = _samples(rng, datum)
    restricted = [is_zero(x) for x in elements] + [tensor_is_zero(t) for t in tensors]
    monkeypatch.setattr(uqg, "_good_prefixes", lambda datum, nu: None)
    exhaustive = [is_zero(x) for x in elements] + [tensor_is_zero(t) for t in tensors]
    assert restricted == exhaustive
    assert True in restricted and False in restricted


def test_affine_data_take_the_exhaustive_walk(monkeypatch):
    affine = cartan_datum("affine:A", 1)
    calls = []
    original = uqg._good_prefixes

    def recording(datum, nu):
        good = original(datum, nu)
        calls.append(good)
        return good

    monkeypatch.setattr(uqg, "_good_prefixes", recording)
    E0, E1 = Element.E(affine, 0), Element.E(affine, 1)
    serre = serre_polynomial(affine, 0, 1, E0, E1)
    assert is_zero(serre)
    assert not is_zero(serre + Element.E(affine, 0, 0, 0, 1))
    assert calls and all(good is None for good in calls)
