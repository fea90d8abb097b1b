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
Quantum Groups*, 1993, ch. 37), so a sum of E-words (or of F-words) maps
by Horner's rule over common suffixes: the words are shortened one letter
at a time from the front, and the partial sums of each suffix combine, and
cancel, before they are multiplied by the next letter's image.  The terms
of an element are grouped by K-vector; a group of E-words alone or of
F-words alone is one such sum times K_{s_i beta}, and a group that mixes
them takes one product per term.  Only the images of single letters E_j
and F_j are memoised, in the datum's declared `caches` under "braid",
keyed by (i, e, family, E or F, j), with one object per distinct monomial
and coefficient drawn from "pool", where a coefficient equal to 1 is ONE
itself.  `apply_word` and `inverse_word` always check that their word is
reduced.  The twists T_{w_X}(E_j) of symmetric pairs are memoised under
"twist" (`qsp.QSPContext.twisted`).
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


def _letter(datum, op, kind, j) -> Element:
    """Image of the letter E_j (kind "E") or F_j (kind "F") under the
    operator, memoised in the datum's "braid" cache."""
    cache = datum.caches["braid"]
    key = (op.i, op.e, op.double_prime, kind, j)
    img = cache.get(key)
    if img is None:
        if kind == "E":
            img = _image_E(datum, op.i, op.e, op.double_prime, j)
        else:
            # the mirror of T_{i,-e}(E_j), whose F-word has at most one letter
            mirror = _image_E(datum, op.i, -op.e, op.double_prime, j).terms
            img = Element(datum, {(f, k, w[::-1]): c for (w, k, f), c in mirror.items()})
        # the images repeat most monomials and coefficients: hold one of each
        intern = _interner(datum)
        img.terms = {intern(m, m): intern(c, c) for m, c in img.terms.items()}
        cache[key] = img
    return img


def _image(datum, op, kind, words) -> Element:
    """Image of sum_w c_w X_w for words = {w: c_w}, X_w the E- or F-word w
    (kind "E" or "F"), by Horner's rule over common suffixes: with A(s) the
    image of sum_p c_{ps} X_p, A(s) = c_s + sum_j A(js) T(X_j), and the
    image is A(()).  The A(s) of one suffix length are finished before the
    next shorter one, so sums cancel before they are multiplied and no word
    length meets the recursion limit."""
    unit = ((), datum.zero_vector(), ())
    levels = [{} for _ in range(max(map(len, words)) + 1)]
    for w, c in words.items():
        levels[len(w)][w] = {unit: c}
    while len(levels) > 1:
        level = levels.pop()
        below = levels[-1]
        for s, a in level.items():
            a = _settle(a)
            letter = _letter(datum, op, kind, s[0])
            # A(s) = c_s when no longer word ends in s: a scaling, not a product
            img = letter.scale(a[unit]) if len(a) == 1 and unit in a else Element(datum, a) * letter
            out = below.setdefault(s[1:], {})
            for key, c in img.terms.items():
                _gather(out, key, c)
    return Element(datum, _settle(levels[0].get((), {})))


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
    """Apply the operator as an algebra map; K_beta -> K_{s_i beta}.  The
    terms of one K-vector that are all E-words (or all F-words) are summed
    by `_image` and multiplied by the twisted K once; a K-vector that mixes
    them takes one product per term."""
    datum = a.datum
    groups = {}
    for (e_word, k, f_word), c in a.terms.items():
        groups.setdefault(k, []).append((e_word, f_word, c))
    images = []
    for k, terms in groups.items():
        K = [Element.K(datum, datum.reflect(op.i, k))] if any(k) else []
        if not any(f for _, f, _ in terms):
            images.append(reduce(mul, [_image(datum, op, "E", {e: c for e, _, c in terms})] + K))
        elif not any(e for e, _, _ in terms):
            images.append(reduce(mul, K + [_image(datum, op, "F", {f: c for _, f, c in terms})]))
        else:
            images += [reduce(mul, [_image(datum, op, "E", {e: c})] + K
                              + ([_image(datum, op, "F", {f: ONE})] if f else []))
                       for e, f, c in terms]
    if len(images) == 1:
        return images[0]
    out = {}
    for img in images:
        for key, x in img.terms.items():
            _gather(out, key, x)
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
