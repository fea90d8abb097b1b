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
polynomials Phi_k(v).  Each distinct denominator b is factored once, as
b = lead * prod Phi_k^m_k * cofactor, and the factorisation is cached under
a key of Python ints; a float test at e^(2 pi i / k) preselects the
candidate k, and exact division confirms each factor.  A numerator is then
reduced by trial division in integers, dividing by each Phi_k of b at most
m_k times, and the reduced denominator is built from the factorisation and
memoised.  Euclid (`_poly_gcd`) runs only on the cofactor, such as the
v^2 + 3 of a user parameter c_i = 1/(v^2 + 3), and on the halves of Phi_k
(4 | k) that a Gaussian numerator may share.  The monic gcd is unique, so
this is the same canonical form as one Euclid on every pair.

Arithmetic.  A coefficient's components are Python ints when they are
integral and Fractions only otherwise, so products and sums of integral
coefficients never build a Fraction.  Every sum that meets a denominator
other than 1 goes through one n-ary sum, `scalar_sum`: addends over one
denominator are summed as polynomials, the distinct denominators, when
all are products of Phi_k, are brought over their lcm, the largest
exponent of each Phi_k, with the multipliers lcm / den memoised by their
exponent vectors, and otherwise over their product; the one fraction is
then normalised once, since a sum of reduced fractions needs only one
reduction at the end (Knuth, TAOCP vol. 2, 4.5.1).  `Scalar.__add__` is
its case of two addends, and straightening sums all the addends of a key
at once.  A sum of polynomials over 1 is canonical as it stands and is
never normalised.  A product with a unit monomial c * v^k, such as a
q-power, only moves and scales the numerator and keeps the denominator: it
is canonical without normalisation.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re, 0)
        return GaussianRational(
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


GQ_ZERO = GaussianRational(0)
GQ_ONE = GaussianRational(1)
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


def _pneg(p):
    return {e: -c for e, c in p.items()}


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
    """Dense coefficient list [c_0, ..., c_d] for a polynomial with min exp 0."""
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


def _dense_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_gcd(p, q):
    """Monic gcd of two polynomials given as dicts with min exponent 0."""
    a = _dense_trim(_to_dense(p))
    b = _dense_trim(_to_dense(q))
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    if lead != GQ_ONE:
        a = [c / lead for c in a]
    return {e: c for e, c in enumerate(a) if c}


def _poly_exact_div(p, g):
    """p / g for dicts with min exp 0; remainder is required to vanish."""
    if len(g) == 1 and 0 in g:
        c = g[0]
        if c == GQ_ONE:
            return dict(p)
        return {e: x / c for e, x in p.items()}
    q, r = _dense_divmod(_dense_trim(_to_dense(p)), _dense_trim(_to_dense(g)))
    if r:
        raise ArithmeticError("non-exact polynomial division")
    return {e: c for e, c in enumerate(q) if c}


# ---------------------------------------------------------------------------
# Normalisation by a cached cyclotomic factorisation of each denominator.
# ---------------------------------------------------------------------------

_CYCLOTOMIC = {}  # k -> dense integer coefficients of Phi_k(v)
_FACTORS = {}     # denominator key -> (cyclotomic factors, monic cofactor)
_PRODUCTS = {}    # ((k, n), ...) -> prod Phi_k^n: reduced denominators, lcms
_GQ_INT = {}      # n -> GaussianRational(n), shared by the products


def _int_poly(p):
    """(L, re, im): dense integer lists with p = (re + i*im) / L; p has
    min exponent 0."""
    L = 1
    for c in p.values():
        for f in (c.re, c.im):
            if f.denominator != 1:
                L = math.lcm(L, f.denominator)
    n = max(p) + 1
    re = [0] * n
    im = [0] * n
    for e, c in p.items():
        re[e] = c.re.numerator * (L // c.re.denominator)
        im[e] = c.im.numerator * (L // c.im.denominator)
    return L, re, im


def _from_ints(re, im):
    return {e: GaussianRational(x, y) for e, (x, y) in enumerate(zip(re, im)) if x or y}


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


def _divide_out(re, im, phi, limit):
    """Divide re + i*im by phi as often as it divides, at most `limit`
    times; returns (re, im, times)."""
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


def _vanishes_at_root(z, k):
    """Float preselection: is b(e^(2 pi i / k)) small against b's
    coefficients?  Exact division confirms every factor it passes, and a
    factor it misses stays in the cofactor, so it affects speed only."""
    t = 2 * math.pi / k
    w = complex(math.cos(t), math.sin(t))
    acc = 0j
    for c in reversed(z):
        acc = acc * w + c
    return abs(acc) <= 1e-9 * sum(abs(c) for c in z)


def _factor(b):
    """([(k, Phi_k, m_k)], cofactor) with b = lead(b) * prod Phi_k^m_k *
    cofactor; the cofactor is monic, or None when it is 1."""
    _, re, im = _int_poly(b)
    top = max(max(map(abs, re)), max(map(abs, im)))
    z = [complex(x / top, y / top) for x, y in zip(re, im)]
    factors = []
    for k in _orders(len(re) - 1):
        if not _vanishes_at_root(z, k):
            continue
        phi = _cyclotomic(k)
        re, im, m = _divide_out(re, im, phi, len(re))
        if m:
            factors.append((k, phi, m))
    if len(re) == 1:
        return factors, None
    lead = GaussianRational(re[-1], im[-1])
    return factors, {e: c / lead for e, c in _from_ints(re, im).items()}


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _phi_product(exponents):
    """prod Phi_k^n over a dict {k: n}, memoised by its exponent vector;
    integer coefficients are shared objects, so the memo stays small."""
    key = tuple(sorted((k, n) for k, n in exponents.items() if n))
    p = _PRODUCTS.get(key)
    if p is None:
        out = [1]
        for k, n in key:
            for _ in range(n):
                out = _int_mul(out, _cyclotomic(k))
        p = _PRODUCTS[key] = {}
        for e, c in enumerate(out):
            if c:
                g = _GQ_INT.get(c)
                if g is None:
                    g = _GQ_INT[c] = GaussianRational(c)
                p[e] = g
    return p


def _factored(b):
    """b's factorisation by `_factor`, cached in `_FACTORS` under a flat
    tuple of ints, five per term: (exponent, re numerator, re denominator,
    im numerator, im denominator)."""
    key = []
    for e in sorted(b):
        c = b[e]
        key += (e, c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
    key = tuple(key)
    entry = _FACTORS.get(key)
    if entry is None:
        entry = _FACTORS[key] = _factor(b)
    return entry


def _lcm(*dens):
    """(multipliers, lcm) for canonical denominators that are products of
    Phi_k: the lcm takes the largest exponent of each Phi_k, and the
    multipliers are lcm / den in the order given; None when any has a
    cofactor."""
    exponents = []
    for den in dens:
        factors, cofactor = _factored(den)
        if cofactor is not None:
            return None
        exponents.append({k: m for k, _, m in factors})
    top = {}
    for ex in exponents:
        for k, m in ex.items():
            if m > top.get(k, 0):
                top[k] = m
    multipliers = [
        _phi_product({k: n - ex.get(k, 0) for k, n in top.items()}) for ex in exponents
    ]
    return multipliers, _phi_product(top)


def _cancel(a, b, shift):
    """Canonical (num, den) of v^shift * a / b, or None when gcd(a, b) = 1.

    a and b have min exponent 0 and b is not constant.  The gcd is found by
    trial division of a, in integers, by the cyclotomic factors of b, and
    by Euclid on the cofactor alone.
    """
    if len(a) == 1:
        return None  # a is a constant, since both have min exponent 0
    factors, rest = _factored(b)
    L, re, im = _int_poly(a)
    left = {}
    for k, phi, m in factors:
        re, im, j = _divide_out(re, im, phi, m)
        left[k] = m - j
    cofactor = rest
    if any(re) and any(im):
        # Phi_k with 4 | k splits in two over Q(i), and a numerator that is
        # no Gaussian multiple of a rational one may share just one half
        halves = {k: n for k, n in left.items() if k % 4 == 0 and n}
        if halves:
            cofactor = _phi_product(halves)
            if rest is not None:
                cofactor = _pmul(cofactor, rest)
    num = None
    g = None
    if cofactor is not None and len(re) > 1:
        num = _from_ints(re, im)
        g = _poly_gcd(num, cofactor)
        if len(g) == 1:
            g = None
        else:
            num = _poly_exact_div(num, g)
    if g is None and all(left[k] == m for k, _, m in factors):
        return None
    den = _phi_product(left)
    if rest is not None:
        den = _pmul(den, rest)
    if g is not None:
        den = _poly_exact_div(den, g)
    if num is None:
        num = _from_ints(re, im)
    scale = b[max(b)]
    if L != 1:
        scale = scale * GaussianRational(L)
    if scale == GQ_ONE:
        return {e + shift: c for e, c in num.items()}, den
    return {e + shift: c / scale for e, c in num.items()}, den


_DEN_ONE = {0: GQ_ONE}  # the denominator 1, shared and never mutated


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
        sn = min(num)
        sd = min(den)
        a = _pshift(num, -sn) if sn else dict(num)
        b = _pshift(den, -sd) if sd else dict(den)
        shift = sn - sd
        if len(b) == 1:
            c = b[0]
            if c != GQ_ONE:
                a = {e: x / c for e, x in a.items()}
            object.__setattr__(self, "num", _pshift(a, shift))
            object.__setattr__(self, "den", _DEN_ONE)
            return
        if not _reduced:
            cancelled = _cancel(a, b, shift)
            if cancelled is not None:
                object.__setattr__(self, "num", cancelled[0])
                object.__setattr__(self, "den", cancelled[1])
                return
        lead = b[max(b)]
        if lead != GQ_ONE:
            a = {e: x / lead for e, x in a.items()}
            b = {e: x / lead for e, x in b.items()}
        object.__setattr__(self, "num", _pshift(a, shift))
        object.__setattr__(self, "den", b)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(n):
        if n == 0:
            return ZERO
        return Scalar({0: GaussianRational(n)})

    @staticmethod
    def from_fraction(f):
        f = Fraction(f)
        if f == 0:
            return ZERO
        return Scalar({0: GaussianRational(f)})

    @staticmethod
    def gaussian(re, im=0):
        c = GaussianRational(re, im)
        return Scalar({0: c}) if c else ZERO

    @staticmethod
    def i_unit():
        return I_UNIT

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

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self == Scalar.from_int(other)
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
            s = Scalar.__new__(Scalar)
            object.__setattr__(s, "num", _padd(self.num, other.num))
            object.__setattr__(s, "den", _DEN_ONE)
            return s
        return scalar_sum((self, other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.num:
            return self
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "num", _pneg(self.num))
        object.__setattr__(s, "den", self.den)
        return s

    def shifted(self, k):
        """self * v^k.  v^k is a unit, so the result is canonical as it
        stands: the numerator's exponents move by k and the denominator is
        shared, with no normalisation."""
        if not k or not self.num:
            return self
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "num", {e + k: c for e, c in self.num.items()})
        object.__setattr__(s, "den", self.den)
        return s

    def _times_monomial(self, k, c):
        """self * c * v^k for a nonzero coefficient c, canonical as it stands."""
        if c == GQ_ONE:
            return self.shifted(k)
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "num", {e + k: x * c for e, x in self.num.items()})
        object.__setattr__(s, "den", self.den)
        return s

    def __mul__(self, other):
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
            s = Scalar.__new__(Scalar)
            object.__setattr__(s, "num", _pmul(self.num, other.num))
            object.__setattr__(s, "den", _DEN_ONE)
            return s
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(dict(self.den), dict(self.num), _reduced=True)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n == 0:
            return ONE
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    # -- bar involution ------------------------------------------------------

    def bar(self):
        """Field automorphism v -> v^(-1), fixing all Gaussian rationals."""
        if not self.num:
            return self
        return Scalar(
            {-e: c for e, c in self.num.items()},
            {-e: c for e, c in self.den.items()},
            _reduced=True,
        )

    def __repr__(self):
        from .grammar import scalar_to_text
        return f"Scalar({scalar_to_text(self)!r})"


def scalar_sum(addends) -> Scalar:
    """The canonical sum of an iterable of Scalars, normalised once.

    Addends over one denominator are summed as polynomials; the groups of
    distinct denominators are brought over their lcm (`_lcm`), or over
    their product when any has a cofactor, and the one fraction is
    reduced by one `Scalar.__init__`.
    """
    groups = []  # [denominator, numerator sum]
    for a in addends:
        if not a.num:
            continue
        for g in groups:
            if g[0] is a.den or g[0] == a.den:
                _padd_into(g[1], a.num)
                break
        else:
            groups.append([a.den, dict(a.num)])
    if not groups:
        return ZERO
    if len(groups) == 1:
        den, num = groups[0]
        return Scalar(num, den)
    dens = [g[0] for g in groups]
    lcm = _lcm(*dens)
    if lcm is None:
        # a cofactor: the product of the distinct denominators
        den = _DEN_ONE
        for b in dens:
            den = _pmul(den, b)
        multipliers = []
        for t in range(len(dens)):
            m = _DEN_ONE
            for u, b in enumerate(dens):
                if u != t:
                    m = _pmul(m, b)
            multipliers.append(m)
    else:
        multipliers, den = lcm
    num = {}
    for (_, n), m in zip(groups, multipliers):
        _padd_into(num, _pmul(n, m))
    return Scalar(num, den)


ZERO = Scalar({})
ONE = Scalar({0: GQ_ONE})
I_UNIT = Scalar({0: GQ_I})


def is_bar_fixed(a: Scalar) -> bool:
    return a.bar() == a


def fourth_root_power(n) -> Scalar:
    """i^n for an integer n (fourth roots of unity in Q(i))."""
    return (I_UNIT, Scalar.from_int(-1), -I_UNIT, ONE)[(n - 1) % 4]


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


def _extract_q_base(base: Scalar) -> int:
    if not _unit_den(base.den) or len(base.num) != 1:
        raise ValueError("base must be a positive power of q")
    (e, c), = base.num.items()
    if c != GQ_ONE or e <= 0 or e % 2:
        raise ValueError("base must be a positive power of q")
    return e // 2


def qbinom(m: int, k: int, base: Scalar) -> Scalar:
    """Gaussian binomial [m choose k] for base = q^eps given as a Scalar."""
    return qbinom_eps(m, k, _extract_q_base(base))


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
