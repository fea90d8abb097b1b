"""The quantized enveloping algebra as normal-ordered symbolic elements.

Monomials are stored in triangular normal order: an E-word, a torus part
K_beta (beta any root-lattice vector), and an F-word, with Scalar
coefficients.  Multiplication straightens with the torus commutation rules
and the E-F commutator only; the quantum Serre relations are never
rewritten, so representations are non-canonical and equality is decided
semantically.  One deletion-functional engine decides zero for elements
and tensors alike: an Element is a tensor of one factor, and each graded
bucket of the last factor is paired against iterated skew-derivation
functionals, whose complete family is faithful on every graded piece by
nondegeneracy of the standard bilinear form.  The functional of a dual
word is the coordinate at that word of the image in the quantum shuffle
algebra (Rosso), and in finite type the lexicographically largest word of
a nonzero image is one of Leclerc's good words, one per Kostant partition
of the weight (Math. Z. 246, 2004).  There the walk deletes letters only
along prefixes of good words; affine and indefinite data keep the complete
family.

The coproduct, with Delta(E_i) = E_i (x) 1 + K_i (x) E_i, Delta(K_beta) =
K_beta (x) K_beta and Delta(F_i) = F_i (x) K_i^{-1} + 1 (x) F_i, is
expanded per monomial in closed form, a sum over the subsets S of the
E-letters and T of the F-letters that move to the second factor (Jantzen,
ch. 4; Rosso's quantum shuffles), each subset kept in word order:

    Delta(E_e K_k F_f) = sum_{S, T} v^x E_{e-S} K_{k+wt S} F_{f-T}
                                    (x) E_S K_{k-wt(f-T)} F_T,
    x = sum_{s in S, u not in S, u > s} 2 (alpha_{e_s}, alpha_{e_u})
      - sum_{t not in T, u in T, u < t} 2 (alpha_{f_t}, alpha_{f_u}).

Every term is in normal order, and its second factor has Q-degree
wt S - wt T; a graded cell enumerates only the splits of its degree.  The
splits of repeated letters that meet on one term are summed as a Laurent
polynomial in v, which multiplies the monomial's coefficient once.  A
monomial with no F-letters or no E-letters splits only the word it has.

Element and Tensor share one linear layer, `_Linear`: a dict from keys to
nonzero Scalars over one CartanDatum, in insertion order, with ==, +, -,
negation and `scale`.  An Element's keys are monomials, plain tuples
(e_word, k_part, f_word); a Tensor's are tuples of them, one per factor.
Combinations of two classes, data or arities do not combine (ValueError).
Every linear combination is summed by one rule: each term goes to its key
through `_gather`, and `_settle` finishes the dict.  Coefficients over 1
are added as they meet; a key that meets another denominator keeps its
addends and sums them once, by `scalar_sum`.  A key whose sum vanishes is
dropped, and a zero addend never opens a key.  The maps of one tensor
factor are one splice.  Tensor products, contractions and coproduct slots
work on monomials through `_straighten` and `_monomial_coproduct`.
Every q-power q^{(beta, gamma)} that straightening, the coproduct, the
involutions and the zero walk meet is carried as the integer v-exponent
2 (beta, gamma), read off the datum's integer Gram matrix.  Outside the
zero walk it reaches a coefficient as one `Scalar.shifted`: v^k is a unit,
so the shifted coefficient is canonical without normalisation.  The walk
runs on integer Laurent polynomials under one nonzero scale; its
functionals are linear, so each value is the scale times the exact one,
zero exactly when it is.  Each polynomial p = sum_k c_k v^k is packed
into one int N = sum_k c_k 2^(b (k - lo)) beside its least exponent lo
(Kronecker substitution), so v^x moves lo and a sum is one shift and one
add.  Every coefficient the walk meets is a sum of input coefficients,
one per (term, deletion path), so |c| <= L1 P: L1 sums the absolute
values of the input coefficients and P bounds the deletion paths of one
term.  With b = bit_length(L1 P) + 2, every |c| < 2^(b - 2), and balanced
base-2^b digits are unique, so N = 0 exactly when p = 0.
Deleting letter i after the letters u costs v^{2 (alpha_i, wt u)};
`_deletions` applies this rule for the skew derivations r_i and _ir, the
zero walk and the torus pieces of [E_i, F_f].  sigma is the one
reordering; omega = sigma.rho and S = sigma.phi, where rho and phi map
monomials to monomials.

A product of monomials is E_{e1} K_{k1} (F_{f1} E_{e2}) K_{k2} F_{f2}.  The
normal-ordered expansion of F_f E_e is a multiplication table in the sense
of the PBW engines for G-algebras (Levandovskyy, thesis, Kaiserslautern,
2005): it is built once per datum and pair of words (f, e), by letter
passes from F_f in which each E-letter passes K with one shift and the
F-word through the E-F commutator, and kept in the "commute" table.  A
product reads each table term E_e K_k F_f as E_{e1 e} K_{k1 + k + k2}
F_{f f2} times v^{2 (k1, wt e) + 2 (k2, wt f)}; when f1 or e2 is empty it
needs no table.  The rows of an entry share few coefficients up to sign
and a power of v, so a row stores its coefficient as (-1)^n v^s times one
of the entry's distinct bases; a pair of terms with coefficient product c
forms c times each base once, so that Henrici's cross-cancellation runs
once per base and not once per row, negates each such product at most
once, and reaches each row by one shift.  `_straighten` is this step for
one pair of terms; products and q-commutators share it.  A pair that needs
no table is one term, `_pass`; a product with a factor that is one monomial
needing no table is one such term per term of the other factor and sums
nothing.  A group of at least three terms E_e K_{k2} F_{f2} of the right
factor that share K-part and F-word meets each F-word f1 of the left factor
once: `_f_word_pass` moves F_{f1} past the group's whole E-part, letter by
letter from the right, as the skew-derivation form of [x, F_j] does
(Jantzen, ch. 6), the words of the sum cancelling inside each pass, and
each term E_e K_k F_f of the result gives E_{e1 e} K_{k1 + k + k2}
F_{f f2} as a table row does.  Every other pair keeps `_straighten`.  The
terms equal the pair loop's as a dict, in another order; reports sort
the terms, and Scalars are canonical.  Three terms measured best: with
groups of two, the hopf-derivations benchmark also passes its 661
two-term groups, whose tables are warm, and its `wall_s` read 2-4% above
that with three in two probe sets; with four, serre-sweep read 1-4% above.

A q-commutator x y - v^s y x is one pass over the pairs of terms: each
pair forms its coefficient product c once and straightens both orders
into one sum, x y with c and y x with -c and v^s added to every row's
shift, where two products would form c twice and then scale and negate
every term of y x.
Normal-ordered monomials are a basis of the algebra without Serre
relations that straightening works in, so two expressions of one element
of that algebra straighten to the same terms.  The Serre polynomial
F_ij(x, y) = sum_n (-1)^n [m choose n]_{q_i} x^{m-n} y x^n, m = 1 - a_ij,
is therefore built as the iterated q-commutator (ad_q x)^m (y): left and
right multiplication by x commute, and by the q-binomial theorem
prod_{k<m} (L_x - q_i^{m-1-2k} R_x) is the binomial sum (Jantzen,
*Lectures on Quantum Groups*, 1996, ch. 4), with m one-pass
q-commutators.  The factors commute, so their order changes only the
intermediates, and it is chosen so that the torus terms of the longer
factor cancel their leading parts at the first step: k runs down from
m - 1 when x has at least as many terms as y, as x = B_i against F_j, and
up from 0 otherwise, as x = F_i against y = B_j (see `serre_polynomial`).
Memo tables (word weights, the commutation table, 1/(q_i - q_i^{-1}) and
the good words) live in the datum's declared `caches` under "weight",
"commute", "efinv" and "good"; the commutation table draws one object per
word, vector and base, and the braid images one per monomial and scalar,
from "pool".
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import factorial, prod
from operator import add, lt, mul, sub

from .cartan import FiniteTypeError, exact_int, positive_parabolic_roots, vec_sub
from .scalars import ONE, Scalar, integer_numerators, scalar_sum

class ZeroTestGuardError(RuntimeError):
    """A graded bucket exceeded the word-evaluation guard of the zero test."""


# dual-word evaluations allowed per graded bucket; set by `zero_test_guard`
zero_test_bound = ContextVar("zero_test_bound", default=10 ** 6)


@contextmanager
def zero_test_guard(limit):
    """Bound every zero test run in the block by `limit` dual words per
    graded bucket, and restore the previous bound on exit, as
    `decimal.localcontext` restores the decimal context."""
    token = zero_test_bound.set(limit)
    try:
        yield
    finally:
        zero_test_bound.reset(token)


def word_weight(datum, word):
    """The Q-weight of a word of node labels, memoised per datum."""
    cache = datum.caches["weight"]
    w = cache.get(word)
    if w is None:
        v = [0] * datum.n
        for i in word:
            v[datum.pos(i)] += 1
        w = cache[word] = tuple(v)
    return w


def _k_vector(datum, k):
    """k as a tuple; a ValueError unless it has `datum.n` int entries."""
    k = tuple(k)
    if len(k) != datum.n:
        raise ValueError(f"K-vector {k!r} has {len(k)} entries, not {datum.n}")
    for x in k:
        exact_int(x, "K-vector entry")
    return k


def _vexp(datum, beta, word):
    """The v-exponent 2 (beta, wt(word)) of q^{(beta, wt(word))}."""
    return 2 * datum.bilinear(beta, word_weight(datum, word)) if word else 0


def _deletions(datum, word, i):
    """Each occurrence of letter i in the word, left to right, as (x, the
    word without it), x = 2 (alpha_i, wt of the letters before it): the
    v-exponent that deleting it costs."""
    row = datum.vgram[i]
    out = []
    x = 0
    for p, j in enumerate(word):
        if j == i:
            out.append((x, word[:p] + word[p + 1:]))
        x += row[j]
    return out


def _gather(out, key, c):
    """out[key] += c, dropping a zero addend or sum; a sum meeting a
    denominator other than 1 is deferred: the key holds the list of its
    addends until `_settle`."""
    n = len(out)
    prev = out.setdefault(key, c)  # one hash of a new key, as most are
    if len(out) > n:
        if not c.num:
            del out[key]
    elif prev.__class__ is list:
        prev.append(c)
    elif len(prev.den) == 1 and len(c.den) == 1:
        s = prev + c
        if s:
            out[key] = s
        else:
            del out[key]
    else:
        out[key] = [prev, c]


def _settle(out):
    """Sum every deferred key of `_gather` with one normalisation, dropping
    the sums that vanish; returns out."""
    for c in out.values():
        if c.__class__ is list:
            break
    else:
        return out  # nothing deferred, as in most sums
    zero = []
    for key, c in out.items():
        if c.__class__ is list:
            c = out[key] = scalar_sum(c)
            if not c:
                zero.append(key)
    for key in zero:
        del out[key]
    return out


def _interner(datum):
    """The `setdefault` of the datum's "pool", which holds ONE as itself, so
    that a coefficient equal to 1 interns as ONE, which products pass."""
    pool = datum.caches["pool"]
    pool[ONE] = ONE
    return pool.setdefault


def _ef_inverse(datum, i) -> Scalar:
    """1 / (q_i - q_i^{-1}), cached per node."""
    cache = datum.caches["efinv"]
    s = cache.get(i)
    if s is None:
        e = datum.epsilon(i)
        s = (Scalar.v_pow(2 * e) - Scalar.v_pow(-2 * e)).inverse()
        cache[i] = s
    return s


def _mono_times_E(datum, key, i, c):
    """c * (E_e K_k F_f) * E_i as a list of (monomial, coefficient): E_i
    moves past K_k with one shift, and each deletion (x, g) of letter i from
    F_f gives the torus pieces -+ v^{+-x} c / (q_i - q_i^{-1}) K_{k +-
    alpha_i} F_g, in letter order, sharing one product c / (q_i -
    q_i^{-1})."""
    e, k, f = key
    p = datum.pos(i)
    row = datum.gram[p]
    out = [((e + (i,), k, f), c.shifted(2 * sum(map(mul, row, k))))]
    if i in f:
        ci = c * _ef_inverse(datum, i)
        nci = -ci
        up = tuple(b + 1 if t == p else b for t, b in enumerate(k))
        down = tuple(b - 1 if t == p else b for t, b in enumerate(k))
        for x, g in _deletions(datum, f, i):
            out.append(((e, up, g), nci.shifted(x)))
            out.append(((e, down, g), ci.shifted(-x)))
    return out


def _shift_row(datum, k):
    """(2 (k, alpha_p))_p, the v-exponent each letter at position p picks up
    in passing K_k, or None for k = 0; 2 (k, wt w) = sum_p row_p wt(w)_p."""
    if not any(k):
        return None
    return tuple(2 * sum(map(mul, row, k)) for row in datum.gram)


def _pass_shift(datum, r1, e, r2, f):
    """2 (k1, wt e) + 2 (k2, wt f) from the shift rows r1 of k1 and r2 of
    k2: E_e moving left past K_{k1}, and K_{k2} moving left past F_f."""
    x = 0
    if r1 and e:
        x = sum(map(mul, r1, word_weight(datum, e)))
    if r2 and f:
        x += sum(map(mul, r2, word_weight(datum, f)))
    return x


def _commute(datum, f, e):
    """F_f E_e in normal order, as (bases, negs, rows).  Built once per
    (f, e) by the letter pass from F_f and memoised in
    `datum.caches["commute"]`.  A row (E-word, K-vector, F-word, j, s) has
    the coefficient v^s times the j-th signed base: bases[j] for j <
    len(bases), else -bases[negs[j - len(bases)]].  The bases are distinct,
    have lowest exponent 0 and a positive lowest coefficient, and are
    drawn, like the words and vectors, from the datum's "pool"; rows keep
    the order of the letter pass."""
    cache = datum.caches["commute"]
    key = (f, e)
    out = cache.get(key)
    if out is None:
        cur = {((), datum.zero_vector(), f): ONE}
        for i in e:
            nxt = {}
            for mono, c in cur.items():
                for nkey, pc in _mono_times_E(datum, mono, i, c):
                    _gather(nxt, nkey, pc)
            cur = _settle(nxt)
        intern = _interner(datum)
        bases, rows = {}, []  # base -> its index
        for (e1, k, f1), c in cur.items():
            s = min(c.num)
            neg = c.num[s].re < 0  # table coefficients are real
            base = (-c if neg else c).shifted(-s)
            base = intern(base, base)
            b = bases.setdefault(base, len(bases))  # interned: equal bases are one object
            rows.append((intern(e1, e1), intern(k, k), intern(f1, f1), b, neg, s))
        negs = tuple(dict.fromkeys(b for *_, b, neg, _s in rows if neg))
        n = len(bases)
        out = cache[key] = (tuple(bases), negs, tuple(
            (e1, k, f1, n + negs.index(b) if neg else b, s) for e1, k, f1, b, neg, s in rows))
    return out


def _operand(datum, m):
    """The monomial m = (e, k, f) as `_straighten` reads it, (e, k, f, row)."""
    return m + (_shift_row(datum, m[1]),)


def _operands(datum, x):
    """[(operand, coefficient)] of an element's terms."""
    return [(_operand(datum, m), c) for m, c in x.terms.items()]


def _pass(datum, a, b, c, s=0):
    """(key, coefficient) of v^s c times the product of the monomials a =
    (e1, k1, f1, r1) and b = (e2, k2, f2, r2) of `_operands` when f1 or e2
    is empty, so that F_{f1} E_{e2} = E_{e2} F_{f1} needs no table: E_{e1
    e2} K_{k1 + k2} F_{f1 f2} with the shift 2 (k1, wt e2) + 2 (k2, wt f1)."""
    e1, k1, f1, r1 = a
    e2, k2, f2, r2 = b
    key = (e1 + e2, tuple(map(add, k1, k2)), f1 + f2)
    return key, c.shifted(_pass_shift(datum, r1, e2, r2, f1) + s)


def _straighten(datum, out, a, b, c, s=0):
    """Gather v^s c times the product of the monomials a = (e1, k1, f1, r1)
    and b = (e2, k2, f2, r2) of `_operands` into out.  Each term E_e K_k
    F_f of the table expansion of F_{f1} E_{e2} gives E_{e1 e} K_{k1 + k +
    k2} F_{f f2} with the extra shift 2 (k1, wt e) + 2 (k2, wt f); when f1
    or e2 is empty, the product is the one term of `_pass`."""
    e1, k1, f1, r1 = a
    e2, k2, f2, r2 = b
    if not f1 or not e2:
        _gather(out, *_pass(datum, a, b, c, s))
        return
    k12 = tuple(map(add, k1, k2))
    bases, negs, rows = _commute(datum, f1, e2)
    prods = [c * base for base in bases]
    prods += [-prods[n] for n in negs]
    for e, k, f, j, t in rows:
        x = _pass_shift(datum, r1, e, r2, f)
        _gather(out, (e1 + e, tuple(map(add, k12, k)), f + f2), prods[j].shifted(x + s + t))


def _groups(x):
    """{(K-part, F-word): [(E-word, coefficient)]} of the groups of at
    least three terms of x that share their K-part and F-word, the terms
    whose products `_straighten_groups` forms."""
    if len(x.terms) < 3:
        return {}
    out = {}
    for (e, k, f), c in x.terms.items():
        out.setdefault((k, f), []).append((e, c))
    return {key: g for key, g in out.items() if len(g) >= 3}


def _f_word_pass(datum, f, group):
    """F_f times sum c E_e, for the pairs (e, c) of `group`, in normal order
    as {(E-word, K-vector, F-word): coefficient}.  The letters of f pass
    from the right, each one over the whole sum:
        F_j E_e K_k F_g = v^{2 (k, alpha_j)} E_e K_k F_{j g}
            - sum_p (v^{y_p} E_{e-p} K_{k+alpha_j}
                     - v^{-y_p} E_{e-p} K_{k-alpha_j}) F_g / (q_j - q_j^{-1}),
    p running over the letters j of e, y_p = 2 (alpha_j, wt of the letters
    after p); the words of the sum cancel as each pass meets them.  A
    term's F-word g keeps the letters of f that passed it, so the factors
    1 / (q_j - q_j^{-1}) of its torus pieces are those of the letters of f
    missing from g: the passes leave them out, and each term takes their
    product once at the end."""
    cur = {(e, datum.zero_vector(), ()): c for e, c in group}
    for j in reversed(f):
        p = datum.pos(j)
        row, vrow = datum.gram[p], datum.vgram[j]
        nxt = {}
        for (e, k, g), c in cur.items():
            _gather(nxt, (e, k, (j,) + g), c.shifted(2 * sum(map(mul, row, k))))
            if j in e:
                nc = -c
                up = tuple(b + 1 if t == p else b for t, b in enumerate(k))
                down = tuple(b - 1 if t == p else b for t, b in enumerate(k))
                total = sum(map(vrow.__getitem__, e)) - vrow[j]
                for x, rest in _deletions(datum, e, j):
                    _gather(nxt, (rest, up, g), nc.shifted(total - x))
                    _gather(nxt, (rest, down, g), c.shifted(x - total))
        cur = _settle(nxt)
    inverses = {}  # F-word -> product of 1 / (q_j - q_j^{-1}) over the missing letters
    for key, c in cur.items():
        g = key[2]
        s = inverses.get(g)
        if s is None:
            s = ONE
            for label, n in zip(datum.labels, map(sub, word_weight(datum, f), word_weight(datum, g))):
                if n:
                    s = s * _ef_inverse(datum, label) ** n
            inverses[g] = s
        cur[key] = c * s
    return cur


def _straighten_groups(datum, out, left, groups, s=0):
    """Gather v^s times the products of the terms (a, c1) of `left` that
    have F-letters with the groups of `_groups` into out.  F_{f1} times a
    group's E-part is `_f_word_pass`, formed once per F-word f1 and group;
    each of its terms E_e K_k F_f gives E_{e1 e} K_{k1 + k + k2} F_{f f2}
    with c1 and the shift of `_pass_shift`."""
    for (k2, f2), group in groups.items():
        r2 = _shift_row(datum, k2)
        passes = {}
        for (e1, k1, f1, r1), c1 in left:
            if not f1:
                continue
            rows = passes.get(f1)
            if rows is None:
                rows = passes[f1] = [(e, tuple(map(add, k, k2)), f, c)
                                     for (e, k, f), c in _f_word_pass(datum, f1, group).items()]
            for e, k, f, c in rows:
                x = _pass_shift(datum, r1, e, r2, f)
                _gather(out, (e1 + e, tuple(map(add, k1, k)), f + f2), (c1 * c).shifted(x + s))


class _Linear:
    """The linear structure of Element and Tensor: a Scalar-linear
    combination {key: coefficient} over one CartanDatum.  `_args` are the
    constructor arguments before the terms (datum, and arity for a Tensor);
    only combinations of one class and one `_args` combine."""

    __slots__ = ("datum", "terms")

    def _args(self):
        return (self.datum,)

    def _like(self, terms):
        return self.__class__(*self._args(), terms)

    def _check(self, other):
        if self.__class__ is not other.__class__ or self._args() != other._args():
            raise ValueError("combinations of different kinds, data or arities do not combine")

    def __eq__(self, other):
        """Structural equality of representations (use `equals` for semantic)."""
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self._args() == other._args() and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _gather(out, key, c)
        return self._like(_settle(out))

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _gather(out, key, -c)
        return self._like(_settle(out))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        if not scalar:
            return self._like({})
        if scalar is ONE:
            return self
        return self._like({k: c * scalar for k, c in self.terms.items()})


class Element(_Linear):
    """Finite Scalar-linear combination of normal-ordered monomials."""

    __slots__ = ()

    def __init__(self, datum, terms=None):
        self.datum = datum
        self.terms = {} if terms is None else terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, datum):
        return cls(datum, {})

    @classmethod
    def one(cls, datum):
        return cls(datum, {((), datum.zero_vector(), ()): ONE})

    @classmethod
    def unit(cls, datum, scalar):
        if not scalar:
            return cls.zero(datum)
        return cls(datum, {((), datum.zero_vector(), ()): scalar})

    @classmethod
    def E(cls, datum, *word):
        for i in word:
            datum.pos(i)
        return cls(datum, {(tuple(word), datum.zero_vector(), ()): ONE})

    @classmethod
    def F(cls, datum, *word):
        for i in word:
            datum.pos(i)
        return cls(datum, {((), datum.zero_vector(), tuple(word)): ONE})

    @classmethod
    def K(cls, datum, beta):
        """K_beta for beta a coordinate tuple of `datum.n` ints."""
        return cls(datum, {((), _k_vector(datum, beta), ()): ONE})

    @classmethod
    def K_i(cls, datum, i, power=1):
        vec = [0] * datum.n
        vec[datum.pos(i)] = power
        return cls.K(datum, tuple(vec))

    @classmethod
    def monomial(cls, datum, e, k, f, coeff=ONE):
        """coeff E_e K_k F_f, with the letters of e and f checked as `E` and
        `F` check theirs and k as `K` checks it."""
        for i in (*e, *f):
            datum.pos(i)
        k = _k_vector(datum, k)
        if not coeff:
            return cls.zero(datum)
        return cls(datum, {(tuple(e), k, tuple(f)): coeff})

    # -- multiplication ------------------------------------------------------

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other):
        """(E_{e1} K_{k1} F_{f1})(E_{e2} K_{k2} F_{f2}) = E_{e1} K_{k1}
        (F_{f1} E_{e2}) K_{k2} F_{f2}, straightened by `_straighten` for
        each pair of terms with the product of their coefficients.

        A factor that is one monomial needing no table, c E_e K_k on the
        left or c K_k F_f on the right, makes every pair one term of `_pass`.
        The map is injective on monomials, so the terms come in the pair
        loop's order with nothing to sum.

        Otherwise a group of `_groups`, three or more terms of the right
        factor with one K-part and F-word, meets every left term with
        F-letters in `_straighten_groups`, which passes each F-word over the
        group's E-part once; three, since the passes over groups of two
        cost more than the warm tables they replace (see the module
        docstring).  The terms equal the pair loop's as a dict, not in its
        order."""
        if other.__class__ is not Element:
            return NotImplemented  # a Scalar scales from the left only
        if self.datum is not other.datum:
            raise ValueError("elements of different Cartan data do not combine")
        datum = self.datum
        left = _operands(datum, self)
        right = _operands(datum, other)
        if (len(left) == 1 and not left[0][0][2]  # c E_e K_k on the left
                or len(right) == 1 and not right[0][0][0]):  # c K_k F_f on the right
            return Element(datum, dict(
                _pass(datum, a, b, c1 * c2) for b, c2 in right for a, c1 in left))
        groups = _groups(other)
        out = {}
        for b, c2 in right:
            grouped = (b[1], b[2]) in groups
            for a, c1 in left:
                if not (grouped and a[2]):
                    _straighten(datum, out, a, b, c1 * c2)
        if groups:
            _straighten_groups(datum, out, left, groups)
        return Element(datum, _settle(out))

    def __pow__(self, n):
        if exact_int(n, "Element exponent") < 0:
            raise ValueError("negative powers are not defined in U_q")
        out = Element.one(self.datum)
        for _ in range(n):
            out = out * self
        return out

    # -- gradings ------------------------------------------------------------

    def degree_of_key(self, key):
        e, _, f = key
        we = word_weight(self.datum, e)
        wf = word_weight(self.datum, f)
        return tuple(a - b for a, b in zip(we, wf))

    def __repr__(self):
        from .grammar import element_to_text
        return f"Element({element_to_text(self)!r})"


def q_commutator(x: Element, y: Element, s) -> Element:
    """x y - v^s y x for an integer v-exponent s, in one pass: each pair of
    terms forms its coefficient product c once, straightens x y with c and
    y x with -c and v^s added to every row's shift, into one sum.

    As in `Element.__mul__`, the groups of three or more terms of one
    K-part and F-word, of y for x y and of x for y x, meet the other
    factor's F-words once each in `_straighten_groups`, and those pairs
    skip `_straighten` in that order only; the terms equal the pair loop's
    as a dict."""
    if x.datum is not y.datum:
        raise ValueError("elements of different Cartan data do not combine")
    datum = x.datum
    out = {}
    left, right = _operands(datum, x), _operands(datum, y)
    xgroups, ygroups = _groups(x), _groups(y)
    for b, c2 in right:
        grouped = (b[1], b[2]) in ygroups
        for a, c1 in left:
            xy = not (grouped and a[2])
            yx = not (b[2] and (a[1], a[2]) in xgroups)
            if xy or yx:
                c = c1 * c2
                if xy:
                    _straighten(datum, out, a, b, c)
                if yx:
                    _straighten(datum, out, b, a, -c, s)
    if ygroups:
        _straighten_groups(datum, out, left, ygroups)
    if xgroups:
        _straighten_groups(datum, out, [(b, -c) for b, c in right if b[2]], xgroups, s)
    return Element(datum, _settle(out))


# ---------------------------------------------------------------------------
# Hopf structure.
# ---------------------------------------------------------------------------

class Tensor(_Linear):
    """Finite linear combination of tuples of normal-ordered monomials."""

    __slots__ = ("arity",)

    def __init__(self, datum, arity, terms=None):
        self.datum = datum
        self.arity = arity
        self.terms = {} if terms is None else terms

    def _args(self):
        return (self.datum, self.arity)

    def __mul__(self, other):
        """Factorwise product of tensors of equal arity."""
        self._check(other)
        datum, out = self.datum, {}
        right = [([_operand(datum, m) for m in keys], c) for keys, c in other.terms.items()]
        for keys1, c1 in self.terms.items():
            left = [_operand(datum, m) for m in keys1]
            for ops2, c2 in right:
                facs = []
                for a, b in zip(left, ops2):
                    fac = {}
                    _straighten(datum, fac, a, b, ONE)
                    facs.append(_settle(fac))
                for keys, c in _product_terms(facs, c1 * c2):
                    _gather(out, keys, c)
        return Tensor(datum, self.arity, _settle(out))

    def _splice(self, slot, arity, image):
        """Replace the factor at `slot` of every term by image(monomial), an
        iterable of (tuple of monomials, coefficient) multiplied by the
        term's coefficient; the result has the given arity."""
        out = {}
        for keys, c in self.terms.items():
            for sub, cc in image(keys[slot]):
                _gather(out, keys[:slot] + sub + keys[slot + 1:], c * cc)
        return Tensor(self.datum, arity, _settle(out))

    def map_slot(self, slot, fn):
        """Apply an Element -> Element linear map to one tensor factor."""
        datum = self.datum
        return self._splice(slot, self.arity, lambda m: (
            ((key,), c) for key, c in fn(Element(datum, {m: ONE})).terms.items()
        ))

    def coproduct_slot(self, slot):
        """Apply the coproduct to one factor, raising the arity by one."""
        return self._splice(slot, self.arity + 1, lambda m: _monomial_coproduct(self.datum, m, None))

    def counit_slot(self, slot):
        """Apply the counit to one factor, lowering the arity by one."""
        if self.arity == 1:
            raise ValueError("use counit() on Elements")
        return self._splice(slot, self.arity - 1, lambda m: [] if m[0] or m[2] else [((), ONE)])

    def contract(self):
        """Multiply all tensor factors together, left to right."""
        datum, out = self.datum, {}
        for keys, c in self.terms.items():
            part = {keys[0]: c}
            for m2 in keys[1:]:
                b, acc = _operand(datum, m2), {}
                for m, cc in part.items():
                    _straighten(datum, acc, _operand(datum, m), b, cc)
                part = _settle(acc)
            for m, cc in part.items():
                _gather(out, m, cc)
        return Element(datum, _settle(out))

    def as_element(self):
        if self.arity != 1:
            raise ValueError(f"only a tensor of arity 1 is an element, not {self.arity}")
        return Element(self.datum, {k[0]: c for k, c in self.terms.items()})

    def __repr__(self):
        return f"Tensor(arity={self.arity}, terms={len(self.terms)})"


def _product_terms(factors, coeff):
    """[(keys, c)] of coeff times the tensor product of the term dicts, the
    last factor varying fastest; the keys are distinct."""
    parts = [((), coeff)]
    for terms in factors:
        parts = [(keys + (m,), c * cc) for keys, c in parts for m, cc in terms.items()]
    return parts


def _tensor_of_elements(elems):
    """The tensor product of the elements, keys distinct."""
    return Tensor(elems[0].datum, len(elems), dict(_product_terms([x.terms for x in elems], ONE)))


def _splits(datum, word, sign, lo, hi):
    """The splits of an E-word (sign 1) or F-word (sign -1) into the letters
    that stay in the first factor and those that move to the second, with
    lo <= wt(moved) <= hi unless lo is None: {(stay, moved, wt(moved)): P},
    P the sum of v^x over the splits onto that pair, where each staying
    letter u adds sign * 2 (alpha_u, wt of the letters moved before it) to
    x.  A letter branches only where the bounds let it both stay and move.
    Every P is a sum of powers of v over 1, which `_gather` adds as they
    meet and never defers, so the states need no `_settle`.
    """
    left = list(word_weight(datum, word))
    if lo is not None and (min(hi) < 0 or any(map(lt, left, lo))):
        return {}
    zero = datum.zero_vector()
    if lo is not None and not any(hi):  # only the split that moves nothing
        return {(word, (), zero): ONE} if max(lo) <= 0 else {}
    states = {((), (), zero): ONE}
    for u in word:
        p = datum.pos(u)
        left[p] -= 1
        row = datum.gram[p]
        nxt = {}
        for (stay, moved, wt), s in states.items():
            if lo is None or wt[p] + left[p] >= lo[p]:
                x = sign * 2 * sum(map(mul, row, wt))
                _gather(nxt, (stay + (u,), moved, wt), s.shifted(x))
            if lo is None or wt[p] < hi[p]:
                _gather(nxt, (stay, moved + (u,), wt[:p] + (wt[p] + 1,) + wt[p + 1:]), s)
        states = nxt
    return states


def coproduct(a: Element) -> Tensor:
    """Hopf coproduct, extended multiplicatively from the generator values."""
    return coproduct_graded(a, None)


def coproduct_graded(a: Element, target=None) -> Tensor:
    """Terms of the coproduct whose second factor has Q-degree `target`, all
    when None: c times `_monomial_coproduct` of each term c m, in order.
    A term with no F-letters or no E-letters expands only the word it has,
    with no join of the two sides: the other side is the one split of the
    empty word, ONE, so the terms and their order are those of the join."""
    out = {}
    for m, c in a.terms.items():
        for keys, p in _monomial_coproduct(a.datum, m, target):
            _gather(out, keys, c * p)
    return Tensor(a.datum, 2, _settle(out))


def _monomial_coproduct(datum, m, target):
    """[((m1, m2), P)] of the terms of Delta(m) whose m2 has Q-degree
    `target` (all when None), with distinct keys.

    A monomial expands over the subsets S of its E-letters and T of its
    F-letters that move to the second factor, in word order:
    Delta(E_e K_k F_f) = sum_{S,T} v^x E_{e-S} K_{k+wt S} F_{f-T} (x)
    E_S K_{k-wt(f-T)} F_T with x = sum_{s in S, u > s, u not in S}
    2 (alpha_{e_s}, alpha_{e_u}) - sum_{t not in T, u < t, u in T}
    2 (alpha_{f_t}, alpha_{f_u}), every term in normal order and of
    degree wt S - wt T; P = P_E P_F sums the splits onto one key.  Only
    splits of the target degree are built: target <= wt S <= target + wt f
    bounds the E-side, its splits bound the F-side, and the two are joined
    on the degree.  Terms come in the order of the letter-by-letter product.

    A one-sided monomial skips the join.  E_e K_k (K_k alone included)
    expands only its E-word, with wt S = target, into E_{e-S} K_{k+wt S}
    (x) E_S K_k; K_k F_f only its F-word, with wt T = -target, into
    K_k F_{f-T} (x) K_{k-wt(f-T)} F_T.  The empty word has one split, of
    weight 0 with P = ONE, and it lies within its bounds whenever the other
    word has a split of the target degree; so the join would give these
    terms, in this order, with the coefficient P * ONE, which is P itself."""
    e, k, f = m
    if not f:
        return [(((rest, tuple(map(add, k, wt)), ()), (moved, k, ())), pe)
                for (rest, moved, wt), pe in _splits(datum, e, 1, target, target).items()]
    wf = word_weight(datum, f)
    k2 = tuple(map(sub, k, wf))
    if not e:
        lo = None if target is None else tuple(-x for x in target)
        return [((((), k, stay), ((), tuple(map(add, k2, wt)), moved)), pf)
                for (stay, moved, wt), pf in _splits(datum, f, -1, lo, lo).items()]
    if target is None:
        es, fs = _splits(datum, e, 1, None, None), _splits(datum, f, -1, None, None)
    else:
        es = _splits(datum, e, 1, target, tuple(map(add, target, wf)))
        if not es:
            return []
        need = [tuple(map(sub, wt, target)) for _, _, wt in es]  # the values of wt T
        fs = _splits(datum, f, -1, tuple(map(min, zip(*need))), tuple(map(max, zip(*need))))
    by_degree = {}  # the F-splits in order, under wt T (under None for all)
    for (stay, moved, wt), pf in fs.items():
        part = (stay, tuple(map(add, k2, wt)), moved, pf)
        by_degree.setdefault(None if target is None else wt, []).append(part)
    out = []
    for (rest, moved, wt), pe in es.items():
        k1 = tuple(map(add, k, wt))
        degree = None if target is None else tuple(map(sub, wt, target))
        for stay, k2t, fmoved, pf in by_degree.get(degree, ()):
            out.append((((rest, k1, stay), (moved, k2t, fmoved)), pe * pf))
    return out


def counit(a: Element) -> Scalar:
    return scalar_sum([c for (e, _k, f), c in a.terms.items() if not e and not f])


def _order_exponent(datum, wt):
    """P(w) = sum_{s<t} 2 (alpha_{w_s}, alpha_{w_t}) of a word w of weight
    wt, which is (wt, wt) - sum_s (alpha_{w_s}, alpha_{w_s})."""
    return datum.bilinear(wt, wt) - 2 * sum(map(mul, datum.eps, wt))


def antipode(a: Element) -> Element:
    """Antihomomorphism with S(E_i) = -K_i^{-1}E_i, S(F_i) = -F_iK_i, S(K) = K^{-1}.

    S = sigma . phi, where phi = sigma . S is the automorphism with
    E_i -> -E_i K_i, F_i -> -K_i^{-1} F_i fixing K; moving every K to the
    middle gives phi(E_e K_k F_f) = (-1)^{|e|+|f|} v^{P(e) - P(f)} E_e
    K_{k + wt e - wt f} F_f, a bijection on monomials.
    """
    datum = a.datum
    out = {}
    for (e, k, f), c in a.terms.items():
        we, wf = word_weight(datum, e), word_weight(datum, f)
        c = c.shifted(_order_exponent(datum, we) - _order_exponent(datum, wf))
        k = tuple(b + s - t for b, s, t in zip(k, we, wf))
        out[(e, k, f)] = -c if (len(e) + len(f)) % 2 else c
    return sigma(Element(datum, out))


# ---------------------------------------------------------------------------
# Involutions.
# ---------------------------------------------------------------------------

def bar_element(a: Element) -> Element:
    """Bar involution: fixes E and F letters, inverts K_beta, bars coefficients."""
    return Element(
        a.datum,
        {(e, tuple(-x for x in k), f): c.bar() for (e, k, f), c in a.terms.items()},
    )


def sigma(a: Element) -> Element:
    """Algebra antiautomorphism with sigma(E_i)=E_i, sigma(F_i)=F_i, sigma(K)=K^{-1}.

    An F-free term E_e K_k maps to K_{-k} E_{rev e} = v^{2 (-k, wt e)}
    E_{rev e} K_{-k}, already in normal order; a term with F-letters maps
    to the straightened product K_{-k} F_{rev f} E_{rev e}.
    """
    datum = a.datum
    out = {}
    for (e, k, f), c in a.terms.items():
        mk = tuple(-x for x in k)
        if not f:
            _gather(out, (e[::-1], mk, ()), c.shifted(_vexp(datum, mk, e)))
            continue
        coeff = c.shifted(_vexp(datum, mk, f))
        left = Element.monomial(datum, (), mk, f[::-1], coeff)
        if e:
            left = left * Element.E(datum, *reversed(e))
        for key, cc in left.terms.items():
            _gather(out, key, cc)
    return Element(datum, _settle(out))


def omega(a: Element) -> Element:
    """Algebra automorphism swapping E_i and F_i and inverting K_beta.

    omega = sigma . rho, where rho = sigma . omega is the antiautomorphism
    swapping E_i and F_i and fixing K: rho(E_e K_k F_f) = E_{rev f} K_k
    F_{rev e}, a bijection on monomials.
    """
    return sigma(Element(a.datum, {
        (f[::-1], k, e[::-1]): c for (e, k, f), c in a.terms.items()
    }))


# ---------------------------------------------------------------------------
# Skew derivations and the adjoint action.
# ---------------------------------------------------------------------------

def _check_skew_input(a: Element):
    if any(f for _, _, f in a.terms):
        raise ValueError("skew derivations act on E-only elements")


def skew_r(i, a: Element) -> Element:
    """Right skew derivation: deletes each letter i with the q-power of the
    pairing of alpha_i against the letters to its right, whose v-exponent
    is 2 (alpha_i, wt e) - 2 (alpha_i, alpha_i) - x for a deletion (x, _).
    It acts term by term on every E-only element, torus parts included."""
    datum = a.datum
    _check_skew_input(a)
    datum.pos(i)
    row = datum.vgram[i]
    out = {}
    for (e, k, f), c in a.terms.items():
        total = sum(map(row.__getitem__, e)) - row[i]
        for x, rest in _deletions(datum, e, i):
            _gather(out, (rest, k, f), c.shifted(total - x))
    return Element(datum, _settle(out))


def skew_ir(i, a: Element) -> Element:
    """Left skew derivation sigma . r_i . sigma: deletes each letter i of
    E_e K_k with the q-power of the pairing of alpha_i against the letters
    to its left, times q^{-(alpha_i, k)}; it acts on every E-only element,
    torus parts included.  Positions are visited from right to left, the
    order in which r_i meets them in sigma(a)."""
    datum = a.datum
    _check_skew_input(a)
    row = datum.gram[datum.pos(i)]
    out = {}
    for (e, k, f), c in a.terms.items():
        shift = -2 * sum(map(mul, row, k))
        for x, rest in reversed(_deletions(datum, e, i)):
            _gather(out, (rest, k, f), c.shifted(shift + x))
    return Element(datum, _settle(out))


def adjoint_E(i, x: Element) -> Element:
    """Left adjoint action of E_i: E_i x - K_i x K_i^{-1} E_i."""
    datum = x.datum
    Ei = Element.E(datum, i)
    Ki = Element.K_i(datum, i)
    Kinv = Element.K_i(datum, i, -1)
    return Ei * x - Ki * x * Kinv * Ei


# ---------------------------------------------------------------------------
# Semantic zero test.
# ---------------------------------------------------------------------------

def _word_count(wt) -> int:
    """The number of words of weight wt: the multinomial coefficient
    (sum wt)! / prod c!, built as a product of binomials."""
    out = 1
    acc = 0
    for c in wt:
        for t in range(1, c + 1):
            acc += 1
            out = out * acc // t
    return out


def _good_lyndon(datum):
    """Leclerc's good Lyndon word of each positive root, or None when the
    datum is not of finite type.

    Words are tuples of node positions, so tuple order is the lexicographic
    order with letters ordered as in `datum.labels`: l(alpha_i) = (i,) and
    l(gamma) = max{l(beta) l(beta') : beta + beta' = gamma, l(beta) < l(beta')}.
    """
    try:
        roots = positive_parabolic_roots(datum, datum.labels)
    except FiniteTypeError:
        return None
    lyndon = {}
    for gamma in sorted(roots, key=sum):
        if sum(gamma) == 1:
            lyndon[gamma] = (gamma.index(1),)
            continue
        best = ()
        for beta, u in lyndon.items():
            w = lyndon.get(vec_sub(gamma, beta))
            if w is not None and u < w and u + w > best:
                best = u + w
        lyndon[gamma] = best
    return lyndon


def _good_prefixes(datum, nu):
    """The set of all prefixes, as words of labels, of Leclerc's good words
    of weight nu, or None when the datum is not of finite type.

    The good words are the concatenations of good Lyndon words in weakly
    decreasing order, one for each Kostant partition of nu.  Cached per
    datum in `datum.caches["good"]`, with the Lyndon table under None.
    """
    cache = datum.caches["good"]
    if nu in cache:
        return cache[nu]
    if None not in cache:
        cache[None] = _good_lyndon(datum)
    lyndon = cache[None]
    if lyndon is None:
        cache[nu] = None
        return None
    factors = sorted(((w, beta) for beta, w in lyndon.items()), reverse=True)
    labels = datum.labels
    out = set()

    def rec(start, rest, word):
        if not any(rest):
            word = tuple(labels[p] for p in word)
            out.update(word[:t] for t in range(len(word) + 1))
            return
        for t in range(start, len(factors)):
            w, beta = factors[t]
            if all(b <= r for b, r in zip(beta, rest)):
                rec(t, vec_sub(rest, beta), word + w)

    rec(0, tuple(nu), ())
    cache[nu] = frozenset(out)
    return cache[nu]


def _zero_walk(datum, terms) -> bool:
    """The deletion-functional engine behind `is_zero` and `tensor_is_zero`.

    `terms` maps (prefix, key) to a Scalar: key is the monomial of the last
    tensor factor and prefix the tuple of monomials before it, empty for an
    Element.  The Scalars are brought once over one nonzero scale, as
    integer polynomials (`integer_numerators`), and each polynomial is
    packed into one int (`_pack`).  Terms are bucketed by the tri-degree of
    the last factor and every bucket is paired against the iterated
    deletion functionals of its good words (of all its words off finite
    type); whatever is left on a prefix is tested as a tensor of one factor
    fewer.

    Packing is exact.  Each value the walk meets is a sum of input
    coefficients times powers of v, one per (term, deletion path), and a
    term has at most P deletion paths, the product of len(e)! len(f)! over
    its tensor factors.  So every coefficient it meets has |c| <= L1 P, L1
    the sum of the absolute values of the input coefficients, and `_pack`
    takes digits of b = bit_length(L1 P) + 2 bits, so |c| < 2^(b - 2).
    Balanced base-2^b digits are unique, so a packed value is 0 exactly
    when its polynomial is.
    """
    return _walk(datum, _pack(integer_numerators(terms)))


def _pack(polys):
    """{key: (N, lo, b)} for {key: integer polynomial} of
    `integer_numerators`: p = sum_k c_k v^k packs to N = sum_k c_k
    2^(b (k - lo)), lo the least exponent of p, in digits of b bits, the
    width that `_zero_walk` proves exact for the walk over polys.  Empty
    polynomials and values that pack to 0 are left out."""
    l1 = sum(abs(c) for p in polys.values() for c in p.values())
    paths = max((prod(factorial(len(e)) * factorial(len(f)) for e, _k, f in prefix + (key,))
                 for prefix, key in polys), default=1)
    b = (l1 * paths).bit_length() + 2
    out = {}
    for key, p in polys.items():
        if not p:
            continue
        lo = min(p)
        n = 0
        for k, c in p.items():
            n += c << b * (k - lo)
        if n:
            out[key] = (n, lo, b)
    return out


def _add_shifted(out, key, p, x):
    """out[key] += v^x p for values (N, lo, b) of `_pack`, in place,
    dropping the key when the sum is zero: v^x moves lo by 2x, and the
    sum aligns the two values at the lower lo with one shift."""
    n, lo, b = p
    lo += 2 * x
    prev = out.get(key)
    if prev is None:
        out[key] = (n, lo, b)
        return
    m, mlo, _ = prev
    if lo > mlo:
        n = (n << b * (lo - mlo)) + m
        lo = mlo
    else:
        n += m << b * (mlo - lo)
    if n:
        out[key] = (n, lo, b)
    else:
        del out[key]


def _walk(datum, terms) -> bool:
    """The walk of `_zero_walk` on {(prefix, key): packed polynomial}."""
    limit = zero_test_bound.get()
    buckets = {}
    for (prefix, (e, k, f)), c in terms.items():
        bkey = (word_weight(datum, e), k, word_weight(datum, f))
        buckets.setdefault(bkey, {})[(prefix, e, f)] = c
    for (ewt, _k, fwt), bucket in buckets.items():
        count = _word_count(ewt) * _word_count(fwt)
        if count > limit:
            raise ZeroTestGuardError(
                f"bucket with {count} dual-word evaluations exceeds guard {limit}"
            )
        if not _reduce_bucket(datum, bucket, ewt, fwt):
            return False
    return True


def _reduce_bucket(datum, terms, ewt, fwt, path=(), good=None) -> bool:
    """Pair a bucket {(prefix, e_word, f_word): packed polynomial} of
    E-weight ewt and F-weight fwt against the prefix-weighted deletion
    functionals, deleting E-letters first and then F-letters.

    `path` is the word of letters deleted so far on the current side and
    `good` the prefixes of the good words of that side's full weight, or
    None off finite type: letter i is deleted only when path + (i,) is one
    of them.  The path restarts on the F-side.
    """
    if not terms:
        return True
    if not any(ewt) and not any(fwt):
        if ((), (), ()) in terms:  # one term per prefix is left, its value
            return False  # an Element with a nonzero functional value
        return _walk(datum, {(p[:-1], p[-1]): c for (p, _e, _f), c in terms.items()})
    side = 0 if any(ewt) else 1
    wt = ewt if side == 0 else fwt
    if not path:
        good = _good_prefixes(datum, wt)
    for p, cnt in enumerate(wt):
        if not cnt:
            continue
        i = datum.labels[p]
        npath = path + (i,)
        if good is not None and npath not in good:
            continue
        img = {}
        for (prefix, e, f), c in terms.items():
            if side == 0:
                for x, nw in _deletions(datum, e, i):
                    _add_shifted(img, (prefix, nw, f), c, x)
            else:
                for x, nw in _deletions(datum, f, i):
                    _add_shifted(img, (prefix, e, nw), c, x)
        nwt = tuple(c - (1 if t == p else 0) for t, c in enumerate(wt))
        if not any(nwt):
            npath = ()
        ok = (_reduce_bucket(datum, img, nwt, fwt, npath, good)
              if side == 0 else _reduce_bucket(datum, img, ewt, nwt, npath, good))
        if not ok:
            return False
    return True


def is_zero(a: Element) -> bool:
    """Decide whether the element is zero in U_q(g).

    The element is tested as a tensor of one factor: its terms are bucketed
    by tri-degree and each bucket is paired against the iterated
    left-skew-derivation functionals on the E-side and, transported through
    omega, on the F-side.  In finite type only the functionals of good words
    are evaluated, which decide zero on each side; otherwise all of them.
    The bound of `zero_test_guard` (10^6 outside any guard) caps the number
    of all dual words per bucket (E-words times F-words), whichever are
    evaluated.  The walk runs on integer polynomials, every coefficient
    times one nonzero scale (their common denominator times the lcm of the
    rational denominators); each functional is linear with coefficients v^x,
    so its value is that scale times the exact one, zero exactly when it is.
    Each polynomial is packed into one int in digits of b bits, with b
    chosen so that every coefficient the walk can meet is below 2^(b - 2)
    in absolute value (see `_zero_walk`); balanced digits are unique, so a
    packed value is 0 exactly when its polynomial is.
    """
    return _zero_walk(a.datum, {((), key): c for key, c in a.terms.items()})


def equals(a: Element, b: Element) -> bool:
    """Semantic equality in U_q(g).

    Operands with equal term dicts over one datum are the same linear
    combination, so `a == b` proves equality without building a - b or
    walking it; that needs no canonical form of the scalars, which only
    make it hold more often.  Any other pair is decided by `is_zero(a - b)`,
    which raises ValueError for elements of two data.
    """
    return a == b or is_zero(a - b)


def tensor_is_zero(t: Tensor) -> bool:
    """Semantic zero test for tensors.

    Runs the engine of `is_zero` on the last factor, with the earlier
    factors carried as a prefix of every term; the scalars left on each
    prefix form a tensor of one factor fewer, tested the same way.
    The bound of `zero_test_guard` caps every bucket of every factor.
    As in `is_zero`, one nonzero scale multiplies every value the walk
    meets, so each is zero exactly when the exact one is.
    """
    terms = {(keys[:-1], keys[-1]): c for keys, c in t.terms.items()}
    return _zero_walk(t.datum, terms)


def tensor_equals(s: Tensor, t: Tensor) -> bool:
    """Semantic equality of tensors: `s == t` (one datum, one arity, equal
    term dicts) proves it, as in `equals`; any other pair is decided by
    `tensor_is_zero(s - t)`, which raises ValueError for tensors of two
    data or arities."""
    return s == t or tensor_is_zero(s - t)


def serre_polynomial(datum, i, j, x: Element, y: Element) -> Element:
    """F_ij(x, y) = sum_n (-1)^n [m choose n]_{q_i} x^{m-n} y x^n, m = 1 - a_ij,
    built as the iterated q-commutator z <- x z - q_i^{m-1-2k} z x, starting
    from z = y, each step one `q_commutator` with the v-exponent
    2 eps_i (m - 1 - 2k).

    Left and right multiplication by x commute, so by the q-binomial theorem
    prod_k (L_x - q_i^{m-1-2k} R_x) = sum_n (-1)^n [m choose n]_{q_i}
    L_x^{m-n} R_x^n: both forms are the same element of the algebra without
    Serre relations that straightening works in, whose normal-ordered
    monomials are a basis, so they have the same terms.

    The factors commute too, so their order changes only the intermediates,
    and it follows the torus terms of the longer factor, since both B_i and
    B_j can carry them and the longer one carries more.  When x has at
    least as many terms as y, k runs down from m - 1: every term of
    B_i - F_i is E_e K_{-alpha_i}, F-free, and K_{-alpha_i} passes F_i^t F_j
    with q_i^{a_ij + 2t} = q_i^{m-1-2k} for k = m - 1 - t, so step t of the
    descending order, whose z is led by F_i^t F_j, cancels the leading
    parts of those terms' two products.  Otherwise k runs up from 0: y's
    torus terms carry K_{-alpha_j}, and the F_i of x passes it with
    q_i^{-a_ij} = q_i^{m-1}, the factor k = 0.  That is x = F_i against
    y = B_j for i in X, and also a free B_i with fewer terms than a free
    B_j, as on B3 with X = {3}, where F_12(B_1, B_2) builds 9 terms at its
    first step up and 11 at its first step down.
    """
    if i == j:
        raise ValueError("Serre relations require i != j")
    m = 1 - datum.a(i, j)
    eps = datum.epsilon(i)
    z = y
    for k in range(m - 1, -1, -1) if len(x.terms) >= len(y.terms) else range(m):
        z = q_commutator(x, z, 2 * eps * (m - 1 - 2 * k))
    return z
