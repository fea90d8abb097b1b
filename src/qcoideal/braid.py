"""Lusztig's braid-group operators on the quantized enveloping algebra.

Both families (single and double prime) with both signs are provided; the
default `braid_T(datum, i)` is the double-prime, sign +1 operator.  Only
the images of the E_j are written out; T_{i,e}(F_j) is the mirror of
T_{i,-e}(E_j), with the E- and F-words swapped and each reversed, and
everything else extends multiplicatively.
The transcription is pinned down by conformance identities (mutual
inverses, braid relations, the sigma and bar intertwiners, and the
weight-twist relation between the two families), which the test suite
checks on every datum it touches.  Generator images are memoised in the
datum's declared `caches` under "braid"; the twists T_{w_X}(E_j) of
symmetric pairs under "twist" (`qsp.QSPContext.twisted`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ONE, Scalar, qfact
from .uqg import Element


def _divided_power_coeff(datum, i, n) -> Scalar:
    return qfact(n, datum.epsilon(i)).inverse()


def _image_E(datum, i, e, double_prime, j) -> Element:
    """Image of E_j under T^(family)_{i,e}."""
    eps = datum.epsilon(i)
    if j == i:
        alpha = datum.simple_root(i)
        if double_prime:
            # -F_i K_i^e, normal ordered
            k = tuple(e * x for x in alpha)
            return Element.monomial(datum, (), k, (i,), -Scalar.v_pow(4 * e * eps))
        k = tuple(e * x for x in alpha)
        return Element.monomial(datum, (), k, (i,), -ONE)
    m = -datum.a(i, j)
    out = Element.zero(datum)
    zero = datum.zero_vector()
    for r in range(m + 1):
        s = m - r
        coeff = _divided_power_coeff(datum, i, r) * _divided_power_coeff(datum, i, s)
        if double_prime:
            coeff = coeff * Scalar.v_pow(-2 * e * eps * r)
            word = (i,) * s + (j,) + (i,) * r
        else:
            coeff = coeff * Scalar.v_pow(2 * e * eps * r)
            word = (i,) * r + (j,) + (i,) * s
        if r % 2:
            coeff = -coeff
        out = out + Element.monomial(datum, word, zero, (), coeff)
    return out


def _gen_image(datum, i, e, double_prime, kind, j) -> Element:
    cache = datum.caches["braid"]
    key = (i, e, double_prime, kind, j)
    img = cache.get(key)
    if img is None:
        if kind == "E":
            img = _image_E(datum, i, e, double_prime, j)
        else:
            # the mirror of T_{i,-e}(E_j)
            mirror = _image_E(datum, i, -e, double_prime, j).terms
            img = Element(datum, {(f[::-1], k, w[::-1]): c for (w, k, f), c in mirror.items()})
        cache[key] = img
    return img


@dataclass(frozen=True)
class BraidOperator:
    """T''_{i,e} (double_prime=True) or T'_{i,e} on the quantum algebra."""

    i: int
    double_prime: bool = True
    e: int = 1

    def inverse(self) -> "BraidOperator":
        """T''_{i,e} and T'_{i,-e} are mutually inverse."""
        return BraidOperator(self.i, not self.double_prime, -self.e)


def braid_T(datum, i) -> BraidOperator:
    datum.pos(i)
    return BraidOperator(i)


def apply_braid(op: BraidOperator, a: Element) -> Element:
    """Apply the operator monomialwise as an algebra map; K_beta -> K_{s_i beta}."""
    datum = a.datum
    out = Element.zero(datum)
    for (e_word, k, f_word), c in a.terms.items():
        prod = Element.unit(datum, c)
        for letter in e_word:
            prod = prod * _gen_image(datum, op.i, op.e, op.double_prime, "E", letter)
        if any(k):
            prod = prod * Element.K(datum, datum.reflect(op.i, k))
        for letter in f_word:
            prod = prod * _gen_image(datum, op.i, op.e, op.double_prime, "F", letter)
        out = out + prod
    return out


def apply_word(word, a: Element, check_reduced: bool = True) -> Element:
    """T_w for w given by a reduced word (left-to-right product of T_i)."""
    datum = a.datum
    word = tuple(word)
    if check_reduced and not datum.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    for i in reversed(word):
        a = apply_braid(BraidOperator(i), a)
    return a


def inverse_word(word, a: Element, check_reduced: bool = True) -> Element:
    """T_w^{-1} along the same reduced word."""
    datum = a.datum
    word = tuple(word)
    if check_reduced and not datum.is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    for i in word:
        a = apply_braid(BraidOperator(i, double_prime=False, e=-1), a)
    return a
