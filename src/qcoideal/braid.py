"""Lusztig's braid-group operators on the quantized enveloping algebra.

Both families (single and double prime) with both signs are provided; the
default `braid_T(datum, i)` is the double-prime, sign +1 operator.  Only
the images of the E_j are written out; T_{i,e}(F_j) is the mirror of
T_{i,-e}(E_j), with the E- and F-words swapped and each reversed, and
everything else extends multiplicatively.
The transcription is pinned down by conformance identities (mutual
inverses, braid relations, the sigma and bar intertwiners, and the
weight-twist relation between the two families), which the test suite
checks on every datum it touches.

Each operator is an algebra automorphism (Lusztig, *Introduction to
Quantum Groups*, 1993, ch. 37), so the image of an E- or F-word is the
image of the word without its last letter times the image of that letter.
These images carry no coefficient and are memoised per prefix in the
datum's declared `caches` under "braid", keyed by (i, e, family, E or F,
word), with one object per distinct monomial and coefficient drawn from
"pool", where a coefficient equal to 1 is ONE itself.  A monomial's image
is its E-word's image times K_{s_i beta} times its F-word's image, scaled
once by its coefficient.  `apply_word` and `inverse_word` always check
that their word is reduced.  The twists T_{w_X}(E_j) of symmetric pairs
are memoised under "twist" (`qsp.QSPContext.twisted`).
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import mul

from .scalars import ONE, Scalar, qfact
from .uqg import Element, _gather, _interner, _settle


def _image_E(datum, i, e, double_prime, j) -> Element:
    """Image of E_j under T^(family)_{i,e}."""
    eps = datum.epsilon(i)
    if j == i:
        # double prime: -F_i K_i^e, normal ordered
        k = tuple(e * x for x in datum.simple_root(i))
        c = -Scalar.v_pow(4 * e * eps) if double_prime else -ONE
        return Element.monomial(datum, (), k, (i,), c)
    m = -datum.a(i, j)
    out = {}
    zero = datum.zero_vector()
    for r in range(m + 1):
        s = m - r
        coeff = qfact(r, eps).inverse() * qfact(s, eps).inverse()
        if double_prime:
            coeff = coeff * Scalar.v_pow(-2 * e * eps * r)
            word = (i,) * s + (j,) + (i,) * r
        else:
            coeff = coeff * Scalar.v_pow(2 * e * eps * r)
            word = (i,) * r + (j,) + (i,) * s
        if r % 2:
            coeff = -coeff
        _gather(out, (word, zero, ()), coeff)
    return Element(datum, _settle(out))


def _word_image(datum, op, kind, word) -> Element:
    """Image of the nonempty E- or F-word (kind "E" or "F") under the
    operator, memoised per prefix."""
    cache = datum.caches["braid"]
    img = cache.get((op.i, op.e, op.double_prime, kind, word))
    if img is not None:
        return img
    intern = _interner(datum)
    for n in range(1, len(word) + 1):
        key = (op.i, op.e, op.double_prime, kind, word[:n])
        nxt = cache.get(key)
        if nxt is None:
            if n > 1:
                nxt = img * _word_image(datum, op, kind, word[n - 1:n])
            elif kind == "E":
                nxt = _image_E(datum, op.i, op.e, op.double_prime, word[0])
            else:
                # the mirror of T_{i,-e}(E_j), whose F-word has at most one letter
                mirror = _image_E(datum, op.i, -op.e, op.double_prime, word[0]).terms
                nxt = Element(datum, {(f, k, w[::-1]): c for (w, k, f), c in mirror.items()})
            # the images repeat most monomials and coefficients: hold one of each
            nxt.terms = {intern(m, m): intern(c, c) for m, c in nxt.terms.items()}
            cache[key] = nxt
        img = nxt
    return img


class BraidOperator(namedtuple("BraidOperator", "i double_prime e", defaults=(True, 1))):
    """T''_{i,e} (double_prime=True) or T'_{i,e} on the quantum algebra; a
    tuple (i, double_prime, e), so it equals (1, True, 1) for T''_{1,1}."""

    __slots__ = ()

    def inverse(self) -> "BraidOperator":
        """T''_{i,e} and T'_{i,-e} are mutually inverse."""
        return BraidOperator(self.i, not self.double_prime, -self.e)


def braid_T(datum, i) -> BraidOperator:
    datum.pos(i)
    return BraidOperator(i)


def apply_braid(op: BraidOperator, a: Element) -> Element:
    """Apply the operator monomialwise as an algebra map; K_beta -> K_{s_i beta}."""
    datum = a.datum
    out = {}
    for (e_word, k, f_word), c in a.terms.items():
        parts = [_word_image(datum, op, "E", e_word)] if e_word else []
        if any(k):
            parts.append(Element.K(datum, datum.reflect(op.i, k)))
        if f_word:
            parts.append(_word_image(datum, op, "F", f_word))
        img = reduce(mul, parts) if parts else Element.one(datum)
        for key, x in img.terms.items():
            _gather(out, key, x * c)
    return Element(datum, _settle(out))


def _along(word, a, inverse):
    """T_w along a reduced word (the last letter acts first), or T_w^{-1}."""
    word = tuple(word)
    if not a.datum.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    for i in (word if inverse else reversed(word)):
        op = BraidOperator(i)
        a = apply_braid(op.inverse() if inverse else op, a)
    return a


def apply_word(word, a: Element) -> Element:
    """T_w for w given by a reduced word (left-to-right product of T_i)."""
    return _along(word, a, inverse=False)


def inverse_word(word, a: Element) -> Element:
    """T_w^{-1} along the same reduced word."""
    return _along(word, a, inverse=True)
