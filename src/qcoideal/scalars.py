"""Exact arithmetic in the field Q(i)(v) of rational functions in v = q^(1/2).

A Scalar is a reduced fraction of Laurent polynomials in v whose
coefficients are Gaussian rationals a + b*i.  Integer powers of q are even
powers of v, so half-integer q-exponents stay exact.  The bar involution
v -> v^(-1) acts coefficient-fixing; bar-symmetric quantum integers,
Gaussian binomials and q-shifted factorials are provided on top.

Canonical form: the denominator is monic with lowest exponent 0 and shares
no factor with the numerator, so equality of Scalars is a plain structural
check.

Normalisation.  The denominators the engine meets, from 1/[n]_{q_i}!,
(q_i - q_i^-1)^-1 and 1 - q^(2(a_i, a_j)), are products of cyclotomic
polynomials Phi_k(v), and such a denominator is kept with its exponent
vector {k: m_k}: `den` is a `_Den`, the dict of prod Phi_k^m_k carrying
the vector, one object per vector.  A numerator is reduced by trial
division, in integers, by the Phi_k of a vector (`_strip`).  Where every
Phi_k of the vector is Phi_1, Phi_2 or Phi_4, the numerator's dict is
first evaluated at the roots 1, -1 and i, as sums of its coefficients by
exponent mod 2 or 4, and most such numerators are ruled out there.  What
remains is divided once per process: `_STRIPS` keeps the outcome of each
(vector, numerator) pair under a flat key of ints, with one remainder
vector dict per distinct vector (`_LEFTS`).  A denominator from
outside (`Scalar(num, den)`, `inverse`) is factored once, as
lead * prod Phi_k^m_k * cofactor, by exact trial division by every Phi_k
of degree at most its own, and cached under a key of Python ints.  These
memos are namespaces of the process-wide `memos.MEMOS`.  Euclid
(`_poly_gcd`) runs only on the cofactor, such as the v^2 + 3 of a user
parameter c_i = 1/(v^2 + 3), and on the halves of Phi_k (4 | k) that a
Gaussian numerator may share; such a denominator stays a plain dict.
The monic gcd is unique, so this is the canonical form of Euclid.

Arithmetic.  Coefficient components are ints when integral and Fractions
only otherwise.  A product of reduced a/b and c/d divides a only by the
Phi_k of d and c only by those of b, and adds the vectors (Henrici's
cross-cancellation; Knuth, TAOCP vol. 2, 4.5.1).  Every sum that meets a
denominator other than 1 is one n-ary `scalar_sum`: addends over one
denominator are summed as polynomials, the groups are brought over the
lcm, the componentwise maximum of the vectors, and the sum is divided only
by the Phi_k whose top exponent two or more addends reach.  A cofactor, or
a Gaussian numerator against a Phi_k with 4 | k, sends a product or sum to
the full normaliser.  A product with ONE is the other operand itself.
Sums over 1, products with a unit monomial c * v^k and the bar involution
(each Phi_k is self-reciprocal up to a unit) keep the denominator and
never normalise.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .memos import MEMOS


def _rational(x):
    """x as an int when it is integral, else as a Fraction."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _quotient(a, b):
    """a / b for rational a and nonzero rational b, as _rational gives it."""
    if type(a) is int and type(b) is int:
        return a // b if a % b == 0 else Fraction(a, b)
    return _rational(a / b)


class GaussianRational:
    """a + b*i with exact rational components; immutable.

    A component is a Python int when it is integral and a Fraction (with
    denominator > 1) otherwise, so + - * on integral values never builds a
    Fraction.  Both types have .numerator and .denominator, compare equal
    and hash alike, and the repr shows every component as a Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is int else _rational(re))
        object.__setattr__(self, "im", im if type(im) is int else _rational(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __add__(self, other):
        return _gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not self.im and not other.im:
            return _gaussian(self.re * other.re, 0)
        return _gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GaussianRational(_quotient(self.re, other.re), _quotient(self.im, other.re))
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            _quotient(self.re * other.re + self.im * other.im, n),
            _quotient(self.im * other.re - self.re * other.im, n),
        )

    def __repr__(self):
        return f"GaussianRational({Fraction(self.re)!r}, {Fraction(self.im)!r})"


# the real integers -16..16, one shared object each: _SMALL[n] is n, a
# negative n read from the end of the list.  Nearly every real int that
# negation, sums and products give lies there (one pass of each benchmark
# workload at seed 0: 99.96% or more of them, by magnitude at most 16).
_SMALL_BOUND = 16
_SMALL = [GaussianRational(n) for n in range(_SMALL_BOUND + 1)]
_SMALL += [GaussianRational(n) for n in range(-_SMALL_BOUND, 0)]


def _gaussian(re, im):
    """GaussianRational(re, im), the shared object of `_SMALL` for a small
    real int."""
    if not im and type(re) is int and -_SMALL_BOUND <= re <= _SMALL_BOUND:
        return _SMALL[re]
    return GaussianRational(re, im)


GQ_ZERO = _SMALL[0]
GQ_ONE = _SMALL[1]
GQ_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: GaussianRational} dicts, no zero entries.
# ---------------------------------------------------------------------------

def _padd(p, q):
    return _padd_into(dict(p), q)


def _padd_into(r, q):
    """r += q in place; returns r."""
    for e, c in q.items():
        s = r.get(e)
        if s is None:
            r[e] = c
        else:
            s = s + c
            if s:
                r[e] = s
            else:
                del r[e]
    return r


def _pmul(p, q):
    if not p or not q:
        return {}
    if len(q) == 1:
        (eq, cq), = q.items()
        if cq == GQ_ONE:
            return {e + eq: c for e, c in p.items()}
        return {e + eq: c * cq for e, c in p.items()}
    if len(p) == 1:
        return _pmul(q, p)
    r = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = c1 * c2
            s = r.get(e)
            if s is None:
                r[e] = c
            else:
                s = s + c
                if s:
                    r[e] = s
                else:
                    del r[e]
    return r


def _pshift(p, k):
    if k == 0:
        return dict(p)
    return {e + k: c for e, c in p.items()}


def _to_dense(p):
    """Dense coefficient list [c_0, ..., c_d], c_d != 0, of a dict with min exp 0."""
    d = max(p)
    out = [GQ_ZERO] * (d + 1)
    for e, c in p.items():
        out[e] = c
    return out


def _dense_divmod(a, b):
    """Polynomial division over Q(i); a, b dense lists, b nonzero."""
    a = list(a)
    db = len(b) - 1
    lead = b[db]
    q = [GQ_ZERO] * max(len(a) - db, 0)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if not c:
            continue
        f = c / lead
        q[k] = f
        for j in range(db + 1):
            if b[j]:
                a[k + j] = a[k + j] - f * b[j]
    while a and not a[-1]:
        a.pop()
    return q, a


def _poly_gcd(p, q):
    """Monic gcd of two polynomials given as dicts with min exponent 0."""
    a, b = _to_dense(p), _to_dense(q)
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    return {e: c / a[-1] for e, c in enumerate(a) if c}


def _poly_exact_div(p, g):
    """p / g for dicts with min exp 0; remainder is required to vanish."""
    q, r = _dense_divmod(_to_dense(p), _to_dense(g))
    if r:
        raise ArithmeticError("non-exact polynomial division")
    return {e: c for e, c in enumerate(q) if c}


# ---------------------------------------------------------------------------
# Denominators as exponent vectors over the cyclotomic polynomials Phi_k.
# ---------------------------------------------------------------------------

_CYCLOTOMIC = MEMOS["cyclotomic"]  # k -> dense integer coefficients of Phi_k(v)
_FACTORS = MEMOS["factors"]        # denominator key -> (exponent vector, monic cofactor)
_PRODUCTS = MEMOS["products"]      # ((k, n), ...) -> prod Phi_k^n as its interned _Den
_STRIPS = MEMOS["strips"]          # (vector, numerator) key -> `_trial_division` of the pair
_LEFTS = MEMOS["lefts"]            # sorted items of a remainder vector -> the one dict of it


class _Den(dict):
    """A canonical denominator prod Phi_k^n_k: its {exponent: coefficient}
    dict, carrying its exponent vector `phi` ({k: n_k}, no zero n_k).
    `_phi_product` makes one object per vector, and none is ever mutated."""

    __slots__ = ("phi",)


def _int_poly(p, s=0):
    """(L, re, im): dense integer lists with p = v^s (re + i*im) / L, where
    s = min(p)."""
    L = math.lcm(*[f.denominator for c in p.values() for f in (c.re, c.im)])
    n = max(p) + 1 - s
    re, im = [0] * n, [0] * n
    for e, c in p.items():
        re[e - s] = c.re.numerator * (L // c.re.denominator)
        im[e - s] = c.im.numerator * (L // c.im.denominator)
    return L, re, im


def _from_ints(re, im, s=0, L=1):
    """v^s (re + i*im) / L as a polynomial dict."""
    if L != 1:
        re, im = [_quotient(x, L) for x in re], [_quotient(y, L) for y in im]
    return {e + s: GaussianRational(x, y) for e, (x, y) in enumerate(zip(re, im)) if x or y}


def _int_div(a, m):
    """a / m for dense integer lists and monic m; None unless m divides a."""
    dm = len(m) - 1
    n = len(a) - dm
    if n <= 0:
        return None
    tail = [(j, c) for j, c in enumerate(m[:dm]) if c]
    a = list(a)
    q = [0] * n
    for k in range(n - 1, -1, -1):
        c = a[k + dm]
        if c:
            q[k] = c
            for j, mj in tail:
                a[k + j] -= c * mj
    if any(a[:dm]):
        return None
    return q


def _divide_out(re, im, k, limit):
    """Divide re + i*im by Phi_k as often as it divides, at most `limit`
    times; returns (re, im, times)."""
    phi = _cyclotomic(k)
    real = not any(im)
    j = 0
    while j < limit:
        qr = _int_div(re, phi)
        if qr is None:
            break
        if real:
            qi = [0] * len(qr)
        else:
            qi = _int_div(im, phi)
            if qi is None:
                break
        re, im = qr, qi
        j += 1
    return re, im, j


def _int_key(p, key=()):
    """The ints `key` followed by five per term of the polynomial p, in
    exponent order: (exponent, re numerator, re denominator, im numerator,
    im denominator).  A flat tuple of ints builds, hashes and compares
    faster, and holds less, than a frozenset of the items."""
    key = list(key)
    for e in sorted(p):
        c = p[e]
        key += (e, c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
    return tuple(key)


def _vanishes(s, k):
    """For k = 1, 2 or 4: does a real polynomial whose coefficients sum to
    s[r] over the exponents r mod 4 vanish at 1, -1 or i?"""
    s0, s1, s2, s3 = s
    if k == 1:
        return s0 + s1 + s2 + s3 == 0
    if k == 2:
        return s0 + s2 == s1 + s3
    return s0 == s2 and s1 == s3


def _root_misses(p, ks):
    """For ks among 1, 2 and 4: does no Phi_k of ks divide the polynomial
    dict p?  Each is ruled out when the real or the imaginary parts of p's
    coefficients do not vanish at its root, 1, -1 or i; v^e is read at the
    root by e mod 4, negative e included."""
    re, im = [0] * 4, [0] * 4
    for e, c in p.items():
        re[e & 3] += c.re
        im[e & 3] += c.im
    return not any(_vanishes(re, k) and _vanishes(im, k) for k in ks)


def _trial_division(p, vec):
    """(q, left, split) of `_strip` by trial division in integers, or
    (None, None, split) when nothing divides."""
    s = min(p)
    L, re, im = _int_poly(p, s)
    left = {}
    for k, m in vec.items():
        re, im, j = _divide_out(re, im, k, m)
        left[k] = m - j
    split = any(re) and any(im) and any(n for k, n in left.items() if k % 4 == 0)
    if left == vec:
        return None, None, split
    # few remainder vectors occur: the entries of `_STRIPS` share one dict each
    left = _LEFTS.setdefault(tuple(sorted(left.items())), left)
    return _from_ints(re, im, s, L), left, split


def _strip(p, vec):
    """(q, left, split): q = p / prod Phi_k^(vec[k] - left[k]), dividing p
    by each Phi_k of the exponent vector `vec` as often as it divides, at
    most vec[k] times; q is p and left is vec when nothing divides.  split
    says that q is Gaussian and left keeps a Phi_k with 4 | k: over Q(i)
    such a Phi_k is the product of two halves, and q may share one.

    A vector of Phi_1, Phi_2 and Phi_4 alone is first tested at their roots
    on p's dict (`_root_misses`).  Any other pair is divided once per
    process and kept in `_STRIPS`; its q and left are shared by every
    caller, and none mutates them."""
    if len(p) == 1 or not vec:
        return p, vec, False  # a monomial shares no factor with Phi_k
    if vec.keys() <= {1, 2, 4} and _root_misses(p, vec):
        return p, vec, bool(vec.get(4)) and any(c.re for c in p.values()) and any(c.im for c in p.values())
    key = _int_key(p, [*itertools.chain.from_iterable(vec.items()), 0])  # k >= 1: 0 ends the vector
    entry = _STRIPS.get(key)
    if entry is None:
        entry = _STRIPS[key] = _trial_division(p, vec)
    return entry if entry[0] is not None else (p, vec, entry[2])


def _cyclotomic(k):
    """Phi_k as a dense integer list: v^k - 1 over Phi_d for every proper
    divisor d of k."""
    phi = _CYCLOTOMIC.get(k)
    if phi is None:
        phi = [-1] + [0] * (k - 1) + [1]
        for d in range(1, k):
            if k % d == 0:
                phi = _int_div(phi, _cyclotomic(d))
        _CYCLOTOMIC[k] = phi
    return phi


def _totient(k):
    out = n = k
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


def _orders(d):
    """Every k with phi(k) <= d, ascending.  For k >= 3,
    phi(k) > k / (e^gamma ln ln k + 3 / ln ln k) (Rosser & Schoenfeld,
    Illinois J. Math. 6, 1962, Thm. 15), and that bound increases from
    k = 30 on, so the search stops once it exceeds d."""
    out = []
    k = 1
    while True:
        if k > 30:
            ll = math.log(math.log(k))
            if k / (1.7811 * ll + 3 / ll) > d:
                return out
        if _totient(k) <= d:
            out.append(k)
        k += 1


def _factor(b):
    """({k: m_k}, cofactor) with b = lead(b) * prod Phi_k^m_k * cofactor;
    the cofactor is monic, or None when it is 1."""
    _, re, im = _int_poly(b)
    vec = {}
    for k in _orders(len(re) - 1):
        re, im, m = _divide_out(re, im, k, len(re))
        if m:
            vec[k] = m
    if len(re) == 1:
        return vec, None
    lead = GaussianRational(re[-1], im[-1])
    return vec, {e: c / lead for e, c in _from_ints(re, im).items()}


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _phi_product(exponents):
    """prod Phi_k^n over a dict {k: n} as its `_Den`, one per exponent
    vector."""
    key = tuple(sorted((k, n) for k, n in exponents.items() if n))
    p = _PRODUCTS.get(key)
    if p is None:
        out = [1]
        for k, n in key:
            for _ in range(n):
                out = _int_mul(out, _cyclotomic(k))
        p = _PRODUCTS[key] = _Den()
        p.phi = dict(key)
        for e, c in enumerate(out):
            if c:
                p[e] = GaussianRational(c)
    return p


def _factored(b):
    """b's factorisation by `_factor`, cached in `_FACTORS` under b's
    `_int_key`.  Products and sums never call it: only `Scalar(num, den)`,
    `inverse` and the Euclid fallback factor."""
    key = _int_key(b)
    entry = _FACTORS.get(key)
    if entry is None:
        entry = _FACTORS[key] = _factor(b)
    return entry


def _cancel(a, b, shift, reduced):
    """Canonical (num, den) of v^shift * a / b.

    a and b have min exponent 0 and b is not constant.  b is factored
    (`_factored`); unless gcd(a, b) = 1 is known (`reduced`), a is divided
    by the Phi_k of b (`_strip`), and Euclid runs on the cofactor alone and
    on the Q(i)-halves of Phi_k (4 | k) that a Gaussian a may share.  A
    denominator that is a product of Phi_k comes out as its `_Den`, also
    when Euclid cancels its cofactor.
    """
    vec, rest = _factored(b)
    split = False
    if not reduced:
        a, vec, split = _strip(a, vec)
    den = _phi_product(vec)
    halves = _phi_product({k: n for k, n in vec.items() if k % 4 == 0}) if split else _DEN_ONE
    if rest is not None:
        den, halves = _pmul(den, rest), _pmul(halves, rest)
    if len(halves) > 1 and not reduced and len(a) > 1:
        g = _poly_gcd(a, halves)
        if len(g) > 1:
            a = _poly_exact_div(a, g)
            vec, rest = _factored(_poly_exact_div(den, g))
            den = _phi_product(vec) if rest is None else _pmul(_phi_product(vec), rest)
    lead = b[max(b)]
    return {e + shift: c / lead for e, c in a.items()}, den


def _normalised(num, dens):
    """Scalar(num, prod dens) by the full normaliser: the fallback for a
    cofactor and for a Q(i)-half that a Gaussian numerator may share."""
    return Scalar(num, functools.reduce(_pmul, dens))


def _make(num, den):
    """The Scalar num / den for a pair known to be canonical."""
    s = Scalar.__new__(Scalar)
    object.__setattr__(s, "num", num)
    object.__setattr__(s, "den", den)
    return s


_DEN_ONE = _phi_product({})  # the denominator 1, shared and never mutated


def _unit_den(den):
    """Is the canonical denominator `den` equal to 1?  It is monic with
    lowest exponent 0, so it is 1 exactly when it has one term."""
    return len(den) == 1


class Scalar:
    """Element of Q(i)(v), stored as a canonical reduced Laurent fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = _DEN_ONE
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            object.__setattr__(self, "num", {})
            object.__setattr__(self, "den", _DEN_ONE)
            return
        sn, sd = min(num), min(den)
        a = _pshift(num, -sn) if sn else dict(num)
        b = _pshift(den, -sd) if sd else dict(den)
        shift = sn - sd
        if len(b) == 1:
            c = b[0]
            if c != GQ_ONE:
                a = {e: x / c for e, x in a.items()}
            num, den = _pshift(a, shift), _DEN_ONE
        else:
            num, den = _cancel(a, b, shift, _reduced)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian(re, im=0):
        c = GaussianRational(re, im)
        return Scalar({0: c}) if c else ZERO

    @staticmethod
    def v_pow(k):
        return Scalar({k: GQ_ONE})

    @staticmethod
    def q_pow(n):
        """q^n as a Scalar; n may be a Fraction with denominator 1 or 2."""
        if isinstance(n, Fraction):
            k = n * 2
            if k.denominator != 1:
                raise ValueError("q-exponent must be a half integer")
            return Scalar({int(k): GQ_ONE})
        return Scalar({2 * n: GQ_ONE})

    # -- predicates ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not other.num:
            return self
        if not self.num:
            return other
        if _unit_den(self.den) and _unit_den(other.den):
            # a Laurent polynomial over 1 is canonical as it stands
            return _make(_padd(self.num, other.num), _DEN_ONE)
        return scalar_sum((self, other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.num:
            return self
        return _make({e: -c for e, c in self.num.items()}, self.den)

    def shifted(self, k):
        """self * v^k.  v^k is a unit, so the result is canonical as it
        stands: the numerator's exponents move by k and the denominator is
        shared, with no normalisation."""
        if not k or not self.num:
            return self
        return _make({e + k: c for e, c in self.num.items()}, self.den)

    def _times_monomial(self, k, c):
        """self * c * v^k for a nonzero coefficient c, canonical as it stands."""
        if c == GQ_ONE:
            return self.shifted(k)
        return _make({e + k: x * c for e, x in self.num.items()}, self.den)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented  # Element.__rmul__ scales an Element
        if self is ONE:
            return other
        if other is ONE:
            return self
        if not self.num or not other.num:
            return ZERO
        unit_self = _unit_den(self.den)
        unit_other = _unit_den(other.den)
        if unit_other and len(other.num) == 1:
            (k, c), = other.num.items()
            return self._times_monomial(k, c)
        if unit_self and len(self.num) == 1:
            (k, c), = self.num.items()
            return other._times_monomial(k, c)
        if unit_self and unit_other:
            return _make(_pmul(self.num, other.num), _DEN_ONE)
        b, d = self.den, other.den
        if b.__class__ is _Den and d.__class__ is _Den:
            # (a / b)(c / d) with gcd(a, b) = gcd(c, d) = 1: only a and d,
            # and c and b, may share a factor (Henrici's cross-cancellation)
            a, d_left, split = _strip(self.num, d.phi)
            if not split:
                c, b_left, split = _strip(other.num, b.phi)
            if not split:
                if b_left and d_left:
                    d_left = {k: b_left.get(k, 0) + d_left.get(k, 0) for k in b_left.keys() | d_left.keys()}
                vec = d_left or b_left
                den = d if vec is d.phi else b if vec is b.phi else _phi_product(vec)
                return _make(_pmul(a, c), den)
        return _normalised(_pmul(self.num, other.num), (b, d))

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(dict(self.den), dict(self.num), _reduced=True)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        """self^n by repeated squaring, in O(log |n|) products."""
        if n == 0:
            return ONE
        base = self if n > 0 else self.inverse()
        n = abs(n)
        out = None
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- bar involution ------------------------------------------------------

    def bar(self):
        """Field automorphism v -> v^(-1), fixing all Gaussian rationals."""
        if not self.num:
            return self
        den = self.den
        if den.__class__ is _Den:
            # Phi_1(1/v) = -v^-1 Phi_1(v) and Phi_k(1/v) = v^-phi(k) Phi_k(v)
            # for k > 1, so b(1/v) = (-1)^m_1 v^-deg(b) b(v)
            top = max(den)
            s = _make({top - e: c for e, c in self.num.items()}, den)
            return -s if den.phi.get(1, 0) % 2 else s
        return Scalar({-e: c for e, c in self.num.items()}, {-e: c for e, c in den.items()}, _reduced=True)

    def __repr__(self):
        from .grammar import scalar_to_text
        return f"Scalar({scalar_to_text(self)!r})"


def _over_lcm(dens):
    """(top, plain, [D / b for b in dens]) for canonical denominators b, where
    D = prod Phi_k^top_k * prod plain is a common multiple of them all: top
    is the maximum of the `_Den` exponent vectors, plain the other dicts."""
    top, plain = {}, []
    for b in dens:
        if b.__class__ is _Den:
            for k, m in b.phi.items():
                if m > top.get(k, 0):
                    top[k] = m
        elif b not in plain:
            plain.append(b)
    cofactors = []
    for b in dens:
        phi = b.phi if b.__class__ is _Den else {}
        m = _phi_product({k: t - phi.get(k, 0) for k, t in top.items()})
        for h in plain:
            if h != b:
                m = _pmul(m, h)
        cofactors.append(m)
    return top, plain, cofactors


def scalar_sum(addends) -> Scalar:
    """The canonical sum of an iterable of Scalars, normalised once.

    Addends over one denominator are summed as polynomials, and the groups
    brought over the lcm of their exponent vectors (`_over_lcm`).  The sum
    is divided only by the Phi_k whose top exponent two or more addends
    reach: where one reduced addend alone reaches it, every other term
    carries Phi_k and that addend does not.  A plain-dict denominator sends
    the sum over a common multiple of the denominators to `Scalar.__init__`.
    """
    groups = []  # [denominator, numerator sum, addends, first addend]
    for a in addends:
        if not a.num:
            continue
        for g in groups:
            if g[0] is a.den or g[0] == a.den:
                g[1] = _padd(g[1], a.num) if g[2] == 1 else _padd_into(g[1], a.num)
                g[2] += 1
                break
        else:
            groups.append([a.den, a.num, 1, a])
    groups = [g for g in groups if g[1]]
    if not groups:
        return ZERO
    if len(groups) == 1 and groups[0][2] == 1:
        return groups[0][3]
    if len(groups) == 1:
        den, num = groups[0][:2]
        top, plain = (dict(den.phi), []) if den.__class__ is _Den else ({}, [den])
    else:
        top, plain, cofactors = _over_lcm([g[0] for g in groups])
        num = {}
        for g, m in zip(groups, cofactors):
            _padd_into(num, _pmul(g[1], m))
        if not num:
            return ZERO
    if plain:
        return _normalised(num, [_phi_product(top), *plain])
    reach = {}  # k -> addends whose denominator has Phi_k^top[k]
    for den, _, n, _ in groups:
        for k, m in den.phi.items():
            if m == top[k]:
                reach[k] = reach.get(k, 0) + n
    shared = {k: top[k] for k, n in reach.items() if n > 1}
    reduced, left, split = _strip(num, shared)
    if split:
        return Scalar(num, _phi_product(top))
    if left is shared:
        den = groups[0][0] if len(groups) == 1 else _phi_product(top)
    else:
        top.update(left)
        den = _phi_product(top)
    return _make(reduced, den)


def integer_numerators(coeffs):
    """{key: D L c} for {key: Scalar c}: D is the common denominator of
    `_over_lcm`, L the lcm of the rational denominators of every D c, and
    D L c an integer polynomial {2e: re, 2e + 1: im} of v, so v^x adds 2x."""
    dens = {id(c.den): c.den for c in coeffs.values()}
    cofactor = dict(zip(dens, _over_lcm(list(dens.values()))[2])) if len(dens) > 1 else None
    polys = {key: _pmul(c.num, cofactor[id(c.den)]) if cofactor else c.num for key, c in coeffs.items()}
    L = math.lcm(*{x.denominator for p in polys.values() for c in p.values() for x in (c.re, c.im)})
    return {key: {2 * e + j: x.numerator * (L // x.denominator)
                  for e, c in p.items() for j, x in ((0, c.re), (1, c.im)) if x} for key, p in polys.items()}


ZERO = Scalar({})
ONE = Scalar({0: GQ_ONE})
I_UNIT = Scalar({0: GQ_I})


def is_bar_fixed(a: Scalar) -> bool:
    return a.bar() == a


def fourth_root_power(n) -> Scalar:
    """i^n for an integer n (fourth roots of unity in Q(i))."""
    return (I_UNIT, Scalar.gaussian(-1), -I_UNIT, ONE)[(n - 1) % 4]


# ---------------------------------------------------------------------------
# q-combinatorics (balanced convention: [n] = (q^n - q^-n)/(q - q^-1)).
# ---------------------------------------------------------------------------

def qint(n: int, eps: int = 1) -> Scalar:
    """Balanced quantum integer [n] in base q^eps; [n] = -[-n]."""
    if n < 0:
        return -qint(-n, eps)
    if n == 0:
        return ZERO
    return Scalar({2 * eps * (n - 1 - 2 * j): GQ_ONE for j in range(n)})


def qfact(n: int, eps: int = 1) -> Scalar:
    out = ONE
    for k in range(2, n + 1):
        out = out * qint(k, eps)
    return out


def qbinom_eps(m: int, k: int, eps: int = 1) -> Scalar:
    """Gaussian binomial [m choose k] in base q^eps; 0 outside 0 <= k <= m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 0 or k > m:
        return ZERO
    k = min(k, m - k)
    out = ONE
    for t in range(1, k + 1):
        out = out * qint(m - k + t, eps) / qint(t, eps)
    return out


def qshifted_factorial(x: Scalar, n: int) -> Scalar:
    """(x; x)_n = prod_{k=1..n} (1 - x^k); empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = ONE
    p = ONE
    for _ in range(n):
        p = p * x
        out = out * (ONE - p)
    return out
