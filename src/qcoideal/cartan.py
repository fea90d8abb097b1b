"""Root-lattice combinatorics for symmetrizable generalized Cartan matrices.

Covers the bilinear form (alpha_i, alpha_j) = eps_i * a_ij, Weyl group
actions and reduced words, parabolic data for finite-type subsets X
(positive roots, longest element, half sums of roots and coroots), the
lattice involution coming from a diagram involution, and validation and
enumeration of admissible pairs (X, tau).  The datum's `caches` hold the
parabolic data of each X ("parabolic") and the admissible pairs ("pairs").

Root vectors are plain tuples of integers (or Fractions where half sums
appear), indexed by position in the datum's label list.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .memos import MEMOS

ENUMERATION_RANK_CAP = 10


class FiniteTypeError(ValueError):
    """Raised when a parabolic subset is not of finite type."""


class AdmissibleError(ValueError):
    """Raised by validate_admissible; carries the list of violated conditions."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def exact_int(x, what: str) -> int:
    """x itself if it is an int: 1.5, 1.0, True and "1" are refused, not
    truncated, since JSON input reaches the engine as Python values."""
    if x.__class__ is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _symmetrizer(A):
    """Minimal positive symmetrizer eps with eps_i a_ij = eps_j a_ji."""
    n = len(A)
    eps = [None] * n
    for start in range(n):
        if eps[start] is not None:
            continue
        eps[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if A[i][j] and j != i:
                    want = eps[i] * A[i][j] / A[j][i]
                    if eps[j] is None:
                        eps[j] = want
                        stack.append(j)
                    elif eps[j] != want:
                        raise ValueError("Cartan matrix is not symmetrizable")
    m = lcm(*(e.denominator for e in eps))
    out = [int(e * m) for e in eps]
    g = gcd(*out)
    return tuple(e // g for e in out)


class CartanDatum:
    """A generalized Cartan matrix with symmetrizers and ordered node labels."""

    def __init__(self, A, eps=None, labels=None):
        A = tuple(tuple(exact_int(x, "Cartan entry") for x in row) for row in A)
        n = len(A)
        if labels is None:
            labels = tuple(range(1, n + 1))
        labels = tuple(exact_int(x, "node label") for x in labels)
        if len(set(labels)) != n:
            raise ValueError("node labels must be distinct")
        for i in range(n):
            if len(A[i]) != n or A[i][i] != 2:
                raise ValueError("Cartan matrix must be square with 2 on the diagonal")
            for j in range(n):
                if i != j and A[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (A[i][j] == 0) != (A[j][i] == 0):
                    raise ValueError("Cartan zero pattern must be symmetric")
        if eps is None:
            eps = _symmetrizer(A)
        else:
            eps = tuple(exact_int(x, "symmetrizer") for x in eps)
            if len(eps) != n or any(e <= 0 for e in eps):
                raise ValueError("symmetrizers must be positive")
            if gcd(*eps) != 1:
                raise ValueError("symmetrizers must be coprime")
            for i in range(n):
                for j in range(n):
                    if eps[i] * A[i][j] != eps[j] * A[j][i]:
                        raise ValueError("D*A is not symmetric")
        self.A = A
        self.eps = eps
        self.labels = labels
        self._pos = {lab: p for p, lab in enumerate(labels)}
        # symmetric Gram matrix (alpha_i, alpha_j) by position
        self.gram = tuple(
            tuple(eps[i] * A[i][j] for j in range(n)) for i in range(n)
        )
        # the simple roots alpha_i as unit vectors, by position
        self.units = tuple(tuple(int(t == p) for t in range(n)) for p in range(n))
        # the v-exponents 2 (alpha_i, alpha_j) by label, vgram[i][j]
        self.vgram = {
            i: {j: 2 * g for j, g in zip(labels, row)} for i, row in zip(labels, self.gram)
        }
        # derived data memoised per datum, one dict per namespace:
        # "parabolic" (Phi_X^+, w_X word and 2 rho_X per sorted X, None for
        # an infinite-type X), "pairs" (the enumerated admissible pairs under
        # None), "weight" (word weights), "efinv", "commute" and "good"
        # (uqg; the normal-ordered F_f E_e per (f, e), good-word
        # prefixes per weight, the good Lyndon words under None), "braid"
        # (braid images of the single letters E_j and F_j), "pool" (one object
        # per word, vector and coefficient base of the commutation table and
        # per monomial and scalar of the letter images, ONE as itself),
        # "twist" (qsp).  A named datum is kept in `MEMOS["datum"]`
        # (`cartan_datum`), so its caches, and with them its enumerated
        # pairs and their QSP contexts, live for the whole process.
        self.caches = defaultdict(dict)

    @property
    def n(self):
        return len(self.labels)

    def pos(self, label):
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"unknown node label {label!r}") from None

    def a(self, i, j):
        return self.A[self.pos(i)][self.pos(j)]

    def epsilon(self, i):
        return self.eps[self.pos(i)]

    def simple_root(self, i):
        return self.units[self.pos(i)]

    def zero_vector(self):
        return (0,) * self.n

    # -- bilinear form and reflections --------------------------------------

    def bilinear(self, beta, gamma):
        """(beta, gamma) extended bilinearly from (alpha_i, alpha_j)."""
        total = 0
        for p, b in enumerate(beta):
            if b:
                row = self.gram[p]
                total += b * sum(c * row[q] for q, c in enumerate(gamma) if c)
        return total

    def reflect(self, i, beta):
        """Simple reflection s_i(beta) = beta - beta(h_i) alpha_i."""
        p = self.pos(i)
        coeff = sum(c * self.A[p][q] for q, c in enumerate(beta) if c)
        if not coeff:
            return tuple(beta)
        out = list(beta)
        out[p] -= coeff
        return tuple(out)

    def weyl_action(self, word, beta):
        """Apply w = s_{word[0]} ... s_{word[-1]}; rightmost factor acts first."""
        for i in reversed(word):
            beta = self.reflect(i, beta)
        return beta

    def is_reduced(self, word):
        """Root-descent criterion: reduced iff every suffix image
        s_{i_k}...s_{i_{l+1}}(alpha_{i_l}) is a positive root."""
        word = tuple(word)
        k = len(word)
        for l in range(k):
            beta = self.simple_root(word[l])
            for t in range(l + 1, k):
                beta = self.reflect(word[t], beta)
            if not _is_positive(beta):
                return False
        return True

    def coxeter_m(self, i, j):
        """Coxeter exponent m_ij; 0 stands for infinity."""
        prod = self.a(i, j) * self.a(j, i)
        return {0: 2, 1: 3, 2: 4, 3: 6}.get(prod, 0)


def _is_positive(beta):
    return any(beta) and all(c >= 0 for c in beta)


def vec_sub(beta, gamma):
    return tuple(b - c for b, c in zip(beta, gamma))


def vec_neg(beta):
    return tuple(-b for b in beta)


# ---------------------------------------------------------------------------
# Named constructors.
# ---------------------------------------------------------------------------

def _chain(n, arrows=()):
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        A[i][i + 1] = A[i + 1][i] = -1
    for (i, j, v) in arrows:
        A[i][j] = v
    return A


def cartan_datum(kind: str, rank: int = 0) -> CartanDatum:
    """The named datum: finite types A-G or untwisted affine 'affine:A'.

    Each named datum is built once and kept in `MEMOS["datum"]` under the
    stripped kind and the rank ('affine:A1' reads as ('affine:A', 1)), so
    every caller shares it and its `caches`.  `CartanDatum(...)` builds a
    fresh one.
    """
    kind = kind.strip()
    if kind == "affine:A1":
        kind, rank = "affine:A", 1
    named = MEMOS["datum"]
    if (kind, rank) not in named:
        named[kind, rank] = _build_named(kind, rank)
    return named[kind, rank]


def _build_named(kind, rank):
    if kind.startswith("affine:"):
        fam = kind.split(":", 1)[1]
        if fam != "A":
            raise ValueError(f"unsupported affine family {fam!r}")
        if rank == 1:
            return CartanDatum([[2, -2], [-2, 2]], labels=(0, 1))
        if rank < 2:
            raise ValueError("affine:A needs rank >= 1")
        n = rank + 1
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            A[i][(i + 1) % n] = A[(i + 1) % n][i] = -1
        return CartanDatum(A, labels=tuple(range(n)))
    if kind == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        return CartanDatum(_chain(rank))
    if kind == "B":
        if rank < 2:
            raise ValueError("type B needs rank >= 2")
        A = _chain(rank, [(rank - 1, rank - 2, -2)])
        return CartanDatum(A)
    if kind == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        A = _chain(rank, [(rank - 2, rank - 1, -2)])
        return CartanDatum(A)
    if kind == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank - 3):
            A[i][i + 1] = A[i + 1][i] = -1
        c = rank - 3
        for leaf in (rank - 2, rank - 1):
            A[c][leaf] = A[leaf][c] = -1
        return CartanDatum(A)
    if kind == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (1, 3), (2, 3)] + [(k, k + 1) for k in range(3, rank - 1)]
        for i, j in edges:
            A[i][j] = A[j][i] = -1
        return CartanDatum(A)
    if kind == "F":
        if rank != 4:
            raise ValueError("type F needs rank 4")
        A = _chain(4, [(2, 1, -2)])
        return CartanDatum(A)
    if kind == "G":
        if rank != 2:
            raise ValueError("type G needs rank 2")
        return CartanDatum([[2, -1], [-3, 2]])
    raise ValueError(f"unknown Cartan type {kind!r}")


def datum_from_json(obj) -> CartanDatum:
    """JSON schema: {'nodes': n, 'A': [[..]], 'eps': [..]} or {'type':, 'rank':}."""
    if "type" in obj:
        return cartan_datum(obj["type"], exact_int(obj.get("rank", 0), "rank"))
    A = obj["A"]
    n = exact_int(obj.get("nodes", len(A)), "'nodes'")
    if len(A) != n:
        raise ValueError("'nodes' disagrees with matrix size")
    eps = obj.get("eps")
    labels = obj.get("labels")
    return CartanDatum(A, eps=eps, labels=labels)


def datum_to_json(datum: CartanDatum):
    return {
        "nodes": datum.n,
        "labels": list(datum.labels),
        "A": [list(r) for r in datum.A],
        "eps": list(datum.eps),
    }


# ---------------------------------------------------------------------------
# Parabolic data.
# ---------------------------------------------------------------------------

def _parabolic(datum: CartanDatum, X):
    """(Phi_X^+, a reduced word for w_X, 2*rho_X), built once per (datum, X)
    in `datum.caches["parabolic"]`.

    An infinite-type X is remembered too: every call for it raises
    FiniteTypeError.
    """
    key = tuple(sorted(X))
    cache = datum.caches["parabolic"]
    if key not in cache:
        cache[key] = _parabolic_data(datum, key)
    data = cache[key]
    if data is None:
        raise FiniteTypeError("parabolic not finite type")
    return data


def _is_finite_type(datum, X):
    """Whether X is of finite type: for a symmetrizable Cartan matrix,
    exactly when the symmetrised block ((alpha_i, alpha_j))_{i, j in X} is
    positive definite (Kac, *Infinite-dimensional Lie algebras*, ch. 4),
    decided by exact elimination: every pivot is positive (Sylvester)."""
    ps = [datum.pos(j) for j in X]
    m = [[Fraction(datum.gram[p][q]) for q in ps] for p in ps]
    for t, row in enumerate(m):
        if row[t] <= 0:
            return False
        for below in m[t + 1:]:
            f = below[t] / row[t]
            if f:
                for c in range(t + 1, len(ps)):
                    below[c] -= f * row[c]
    return True


def _parabolic_data(datum, X):
    """Phi_X^+ by reflection closure of the simple roots of X, or None when
    X is of infinite type.  The word for w_X reflects the strictly
    X-dominant vector 2*rho_X to the antidominant chamber, so its length is
    |Phi_X^+|.
    """
    if not _is_finite_type(datum, X):
        return None
    roots = {datum.simple_root(j) for j in X}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for j in X:
                img = datum.reflect(j, beta)
                if img not in roots:
                    roots.add(img)
                    new.append(img)
        frontier = new
    plus = tuple(b for b in sorted(roots) if _is_positive(b))
    v = two_rho = tuple(map(sum, zip(datum.zero_vector(), *plus)))
    applied = []
    while True:
        for j in X:
            if datum.bilinear(datum.simple_root(j), v) > 0:
                v = datum.reflect(j, v)
                applied.append(j)
                break
        else:
            break
    word = tuple(reversed(applied))
    if len(word) != len(plus):
        raise RuntimeError("internal: longest-element descent produced a non-reduced word")
    return plus, word, two_rho


def positive_parabolic_roots(datum: CartanDatum, X):
    return _parabolic(datum, X)[0]


def longest_word(datum: CartanDatum, X):
    """A reduced word for the longest element w_X, as a left-to-right product."""
    return _parabolic(datum, X)[1]


def rho_check_pairing(datum: CartanDatum, X, gamma):
    """gamma(rho_X^vee) = (1/2) sum over Phi_X^+ of gamma(beta^vee), exact."""
    total = Fraction(0)
    for beta in positive_parabolic_roots(datum, X):
        total += Fraction(2 * datum.bilinear(gamma, beta), datum.bilinear(beta, beta))
    total = total / 2
    return int(total) if total.denominator == 1 else total


# ---------------------------------------------------------------------------
# Admissible pairs.
# ---------------------------------------------------------------------------

class AdmissiblePair:
    """A validated pair (X, tau) with derived parabolic and involution data."""

    def __init__(self, datum, X, tau):
        self.datum = datum
        self.X = frozenset(X)
        self.free = tuple(sorted(set(datum.labels) - self.X))
        self.tau = dict(tau)
        _, self.wX_word, self.two_rho_X = _parabolic(datum, X)
        self._theta_cols = tuple(
            self.theta(datum.simple_root(lab)) for lab in datum.labels
        )
        self.I_ns = tuple(
            i for i in self.free
            if self.tau[i] == i and all(datum.a(i, j) == 0 for j in self.X)
        )
        # the case split of the parameter sets: the free i with
        # (alpha_i, Theta(alpha_i)) = 0, and the tau-fixed free i that no
        # other node of I sees (isolated rank-one components)
        self.theta_orthogonal = tuple(
            i for i in self.free
            if not datum.bilinear(datum.simple_root(i), self.theta_alpha(i))
        )
        self.isolated = tuple(
            i for i in self.free
            if self.tau[i] == i
            and all(datum.a(i, j) == 0 for j in datum.labels if j != i)
        )
        # derived QSP data owned by the pair; see qsp.context_for
        self.qsp_context = None

    def theta(self, beta):
        """Theta(beta) = -w_X(tau(beta)) on the root lattice."""
        datum = self.datum
        tau_beta = [0] * datum.n
        for p, c in enumerate(beta):
            if c:
                tau_beta[datum.pos(self.tau[datum.labels[p]])] += c
        return vec_neg(datum.weyl_action(self.wX_word, tuple(tau_beta)))

    def theta_alpha(self, i):
        return self._theta_cols[self.datum.pos(i)]

    def theta_fixed_vectors(self):
        """The nonzero alpha_p + Theta(alpha_p), one per vector up to sign.

        Theta is an involution, so they span its fixed sublattice over Q."""
        out = []
        for p, col in enumerate(self._theta_cols):
            vec = tuple(c + (q == p) for q, c in enumerate(col))
            if any(vec) and vec not in out and vec_neg(vec) not in out:
                out.append(vec)
        return tuple(out)

    def pairing_theta_2rho(self, i):
        """(alpha_i, Theta(alpha_i) - 2 rho_X) as an integer."""
        d = self.datum
        a = d.simple_root(i)
        return d.bilinear(a, vec_sub(self.theta_alpha(i), self.two_rho_X))

    def __repr__(self):
        X = sorted(self.X)
        moved = {i: j for i, j in sorted(self.tau.items()) if i != j}
        return f"AdmissiblePair(X={X}, tau={moved or 'id'})"


def admissible_violations(datum: CartanDatum, X, tau):
    """List of violated admissibility conditions; empty when (X, tau) is valid."""
    out = []
    X = set(X)
    labels = set(datum.labels)
    if not X <= labels:
        return [f"X contains unknown labels {sorted(X - labels)}"]
    tau = dict(tau)
    if set(tau) != labels or set(tau.values()) != labels:
        return ["tau is not a permutation of the node labels"]
    if any(tau[tau[i]] != i for i in labels):
        out.append("tau is not involutive")
    if any(datum.a(i, j) != datum.a(tau[i], tau[j]) for i in labels for j in labels):
        out.append("tau does not preserve the Cartan matrix")
    if {tau[i] for i in X} != X:
        out.append("tau does not stabilize X")
    if out:
        return out
    try:
        wX = longest_word(datum, X)
    except FiniteTypeError:
        return ["X is not of finite type"]
    for j in sorted(X):
        if datum.weyl_action(wX, datum.simple_root(j)) != vec_neg(datum.simple_root(tau[j])):
            out.append(f"tau and -w_X disagree on node {j}")
    for j in sorted(labels - X):
        if tau[j] == j:
            val = rho_check_pairing(datum, X, datum.simple_root(j))
            if isinstance(val, Fraction):
                out.append(
                    f"alpha_{j}(rho_X^vee) = {val} is not an integer"
                )
    return out


def validate_admissible(datum: CartanDatum, X, tau) -> AdmissiblePair:
    """Return the validated pair or raise AdmissibleError with all violations."""
    violations = admissible_violations(datum, X, tau)
    if violations:
        raise AdmissibleError(violations)
    return AdmissiblePair(datum, X, tau)


def _involutions(labels):
    """All involutive permutations of labels, in deterministic order."""
    labels = sorted(labels)

    def rec(remaining):
        if not remaining:
            yield {}
            return
        first = remaining[0]
        rest = remaining[1:]
        for sub in rec(rest):
            out = dict(sub)
            out[first] = first
            yield out
        for k, partner in enumerate(rest):
            for sub in rec(rest[:k] + rest[k + 1:]):
                out = dict(sub)
                out[first] = partner
                out[partner] = first
                yield out

    return list(rec(labels))


def check_enumerable(datum: CartanDatum):
    """Raise ValueError if `enumerate_admissible` refuses `datum`: it has
    more nodes than ENUMERATION_RANK_CAP."""
    if datum.n > ENUMERATION_RANK_CAP:
        raise ValueError(
            f"admissible-pair enumeration is capped at rank {ENUMERATION_RANK_CAP}"
        )


def enumerate_admissible(datum: CartanDatum):
    """All admissible pairs as a tuple, ordered lexicographically in (X, tau).

    Enumerated once per datum in `datum.caches["pairs"]`, so every caller
    shares the pairs and the QSP contexts they own.
    """
    check_enumerable(datum)
    cache = datum.caches["pairs"]
    if None not in cache:
        cache[None] = _enumerate(datum)
    return cache[None]


def _enumerate(datum):
    labels = sorted(datum.labels)
    taus = [
        t for t in _involutions(labels)
        if all(datum.a(i, j) == datum.a(t[i], t[j]) for i in labels for j in labels)
    ]
    subsets = []
    for size in range(datum.n + 1):
        subsets.extend(sorted(combinations(labels, size)))
    subsets.sort()
    out = [
        AdmissiblePair(datum, X, tau)
        for X in subsets
        for tau in taus
        if not admissible_violations(datum, X, tau)
    ]
    out.sort(key=lambda p: (sorted(p.X), tuple(p.tau[i] for i in labels)))
    return tuple(out)


def tau_from_swaps(datum: CartanDatum, swaps):
    """The diagram map as a dict on every label: each swap (i, j) of int
    labels exchanges i and j, and every other label is fixed."""
    tau = {lab: lab for lab in datum.labels}
    for swap in swaps:
        i, j = (exact_int(x, "node label") for x in swap)
        tau[i] = j
        tau[j] = i
    return tau


def tau_swaps(tau):
    """The swaps (i, j), i < j, of a diagram map, sorted: the inverse of
    `tau_from_swaps`."""
    return sorted((i, j) for i, j in tau.items() if i < j)


def pair_to_json(pair: AdmissiblePair):
    return {"X": sorted(pair.X), "tau": [list(s) for s in tau_swaps(pair.tau)]}

