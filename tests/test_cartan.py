import random
from fractions import Fraction
from itertools import combinations

import pytest

from qcoideal.cartan import (
    AdmissibleError,
    CartanDatum,
    FiniteTypeError,
    admissible_violations,
    cartan_datum,
    datum_from_json,
    datum_to_json,
    enumerate_admissible,
    longest_word,
    positive_parabolic_roots,
    rho_check_pairing,
    tau_from_swaps,
    validate_admissible,
    vec_neg,
)
from qcoideal.suites import ATLAS_DATA


def test_bilinear_values():
    b2 = cartan_datum("B", 2)
    assert b2.bilinear(b2.simple_root(1), b2.simple_root(2)) == -2
    for datum in (b2, cartan_datum("G", 2), cartan_datum("A", 3)):
        for i in datum.labels:
            a = datum.simple_root(i)
            assert datum.bilinear(a, a) == 2 * datum.epsilon(i)
    a2 = cartan_datum("A", 2)
    v = tuple(x + y for x, y in zip(a2.simple_root(1), a2.simple_root(2)))
    # expand bilinearly: (a1,a1) + 2(a1,a2) + (a2,a2) = 2 - 2 + 2
    assert a2.bilinear(v, v) == 2


def test_simple_roots_are_the_unit_vectors_built_once():
    datum = CartanDatum(cartan_datum("B", 3).A, labels=(7, 3, 5))
    assert [datum.simple_root(i) for i in (7, 3, 5)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert datum.simple_root(3) is datum.simple_root(3)
    with pytest.raises(ValueError, match="unknown node label"):
        datum.simple_root(1)


def test_weyl_action():
    a2 = cartan_datum("A", 2)
    assert a2.weyl_action((1,), a2.simple_root(1)) == vec_neg(a2.simple_root(1))
    assert a2.weyl_action((1, 2), a2.simple_root(1)) == a2.simple_root(2)
    a3 = cartan_datum("A", 3)
    w = longest_word(a3, {2})
    assert a3.weyl_action(w, a3.simple_root(2)) == vec_neg(a3.simple_root(2))


def test_longest_word_examples():
    a3 = cartan_datum("A", 3)
    assert longest_word(a3, {2}) == (2,)
    a4 = cartan_datum("A", 4)
    w = longest_word(a4, {2, 3})
    assert len(w) == 3  # (n-2)(n-1)/2 for n=4
    b2 = cartan_datum("B", 2)
    assert longest_word(b2, {2}) == (2,)
    b3 = cartan_datum("B", 3)
    w = longest_word(b3, {2, 3})
    assert len(w) == len(positive_parabolic_roots(b3, {2, 3})) == 4


def test_longest_word_maps_positives_to_negatives():
    for datum, X in [
        (cartan_datum("A", 4), {2, 3}),
        (cartan_datum("B", 3), {2, 3}),
        (cartan_datum("D", 4), {1, 2, 3}),
    ]:
        w = longest_word(datum, X)
        assert datum.is_reduced(w)
        for beta in positive_parabolic_roots(datum, X):
            img = datum.weyl_action(w, beta)
            assert all(c <= 0 for c in img)


def test_longest_word_rejects_infinite_type():
    aff = cartan_datum("affine:A", 2)
    with pytest.raises(FiniteTypeError, match="finite type"):
        longest_word(aff, set(aff.labels))


def test_finite_type_is_decided_by_the_gram_block():
    """D36 is of finite type however many roots it has: with X = all nodes
    and tau = id it is admissible, with 36 * 35 positive roots.  Affine
    and hyperbolic blocks stay infinite, also inside a larger datum."""
    d36 = CartanDatum(cartan_datum("D", 36).A)
    pair = validate_admissible(d36, set(d36.labels), {i: i for i in d36.labels})
    assert len(pair.wX_word) == len(positive_parabolic_roots(d36, d36.labels)) == 36 * 35
    hyperbolic = CartanDatum([[2, -3], [-3, 2]])
    # affine A2 on nodes 1-3, joined to a fourth node
    block = CartanDatum([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]])
    for datum, X in ((cartan_datum("affine:A", 1), {0, 1}), (hyperbolic, {1, 2}),
                     (block, {1, 2, 3}), (block, {1, 2, 3, 4})):
        with pytest.raises(FiniteTypeError, match="finite type"):
            positive_parabolic_roots(datum, X)
    assert len(positive_parabolic_roots(block, {1, 2})) == 3
    assert len(positive_parabolic_roots(block, {2, 3, 4})) == 6


def test_parabolic_rho():
    a3 = cartan_datum("A", 3)
    # empty X: all pairings vanish
    for j in a3.labels:
        two_rho = validate_admissible(a3, set(), {i: i for i in a3.labels}).two_rho_X
        assert a3.bilinear(a3.simple_root(j), two_rho) == 0
        assert rho_check_pairing(a3, set(), a3.simple_root(j)) == 0
    # single-node parabolic
    assert rho_check_pairing(a3, {2}, a3.simple_root(1)) == Fraction(-1, 2)


@pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (4, 2)])
def test_aiii_exponent(n, r):
    datum = cartan_datum("A", n)
    X = set(range(r + 1, n - r + 1))
    tau = {i: n + 1 - i for i in datum.labels}
    pair = validate_admissible(datum, X, tau)
    assert pair.pairing_theta_2rho(r) == n - 2 * r + 1


def test_validate_admissible_examples():
    a3 = cartan_datum("A", 3)
    pair = validate_admissible(a3, {2}, {1: 3, 2: 2, 3: 1})
    assert pair.X == frozenset({2})
    assert pair.free == (1, 3)
    assert validate_admissible(a3, set(), {i: i for i in a3.labels}).free == (1, 2, 3)
    with pytest.raises(AdmissibleError) as err:
        validate_admissible(a3, {2}, {i: i for i in a3.labels})
    assert any("rho_X^vee" in v for v in err.value.violations)


def test_theta_examples():
    a3 = cartan_datum("A", 3)
    quasi = validate_admissible(a3, set(), {i: i for i in a3.labels})
    for i in a3.labels:
        assert quasi.theta_alpha(i) == vec_neg(a3.simple_root(i))
    pair = validate_admissible(a3, {2}, {1: 3, 2: 2, 3: 1})
    assert pair.theta_alpha(1) == (0, -1, -1)
    # involution and the split-node displacement identity
    for p in enumerate_admissible(a3):
        for i in a3.labels:
            a = a3.simple_root(i)
            assert p.theta(p.theta(a)) == a
            ti = p.tau[i]
            lhs = tuple(
                x - y for x, y in zip(p.theta_alpha(ti), a3.simple_root(ti))
            )
            rhs = tuple(x - y for x, y in zip(p.theta_alpha(i), a))
            assert lhs == rhs
        for j in sorted(p.X):
            assert a3.weyl_action(p.wX_word, a3.simple_root(j)) == vec_neg(
                a3.simple_root(p.tau[j])
            )


def _naive_violations(datum, X, tau):
    """Independent admissibility check: longest element found by exhausting
    the parabolic Weyl group rather than by the descent algorithm."""
    labels = set(datum.labels)
    out = []
    if any(tau[tau[i]] != i for i in labels):
        out.append("involution")
    if any(datum.a(i, j) != datum.a(tau[i], tau[j]) for i in labels for j in labels):
        out.append("matrix")
    if {tau[i] for i in X} != set(X):
        out.append("stability")
    if out:
        return out
    plus = positive_parabolic_roots(datum, X)
    # exhaust W_X as permutations of the root set
    frontier = {tuple(tuple(b) for b in plus)}
    seen = set(frontier)
    longest = None
    while frontier:
        nxt = set()
        for state in frontier:
            for j in sorted(X):
                img = tuple(datum.reflect(j, b) for b in state)
                if img not in seen:
                    seen.add(img)
                    nxt.add(img)
        frontier = nxt
    for state in seen:
        if all(all(c <= 0 for c in b) for b in state):
            longest = state
    if longest is None:
        out.append("no longest element")
        return out
    # recover w_X action on simple roots of X from the state
    index = {tuple(b): k for k, b in enumerate(plus)}
    for j in sorted(X):
        img = longest[index[datum.simple_root(j)]]
        if img != vec_neg(datum.simple_root(tau[j])):
            out.append(f"condition-2 at {j}")
    for j in sorted(labels - set(X)):
        if tau[j] == j:
            total = Fraction(0)
            for beta in plus:
                total += Fraction(
                    2 * datum.bilinear(datum.simple_root(j), beta),
                    datum.bilinear(beta, beta),
                )
            if (total / 2).denominator != 1:
                out.append(f"condition-3 at {j}")
    return out


def _involutions(labels):
    labels = sorted(labels)

    def rec(rem):
        if not rem:
            yield {}
            return
        first, rest = rem[0], rem[1:]
        for sub in rec(rest):
            yield {**sub, first: first}
        for k, p in enumerate(rest):
            for sub in rec(rest[:k] + rest[k + 1:]):
                yield {**sub, first: p, p: first}

    return list(rec(labels))


@pytest.mark.parametrize("kind,rank,count", [
    ("A", 1, 2), ("A", 2, 3), ("A", 3, 5), ("A", 4, 4),
    ("B", 2, 3), ("B", 3, 4), ("C", 3, 3), ("D", 4, 11), ("G", 2, 2),
])
def test_enumerate_matches_naive_search(kind, rank, count):
    datum = cartan_datum(kind, rank)
    found = enumerate_admissible(datum)
    assert len(found) == count
    keys = {(tuple(sorted(p.X)), tuple(sorted(p.tau.items()))) for p in found}
    labels = sorted(datum.labels)
    naive = set()
    for size in range(len(labels) + 1):
        for X in combinations(labels, size):
            for tau in _involutions(labels):
                if not _naive_violations(datum, set(X), tau):
                    naive.add((tuple(sorted(X)), tuple(sorted(tau.items()))))
    assert keys == naive


def test_enumerate_contains_worked_pairs():
    a3 = cartan_datum("A", 3)
    keys = {(tuple(sorted(p.X)), tuple(sorted((a, b) for a, b in p.tau.items() if a < b)))
            for p in enumerate_admissible(a3)}
    assert ((2,), ((1, 3),)) in keys
    assert ((), ((1, 3),)) in keys
    b2 = cartan_datum("B", 2)
    keys = {(tuple(sorted(p.X)), tuple(sorted((a, b) for a, b in p.tau.items() if a < b)))
            for p in enumerate_admissible(b2)}
    assert ((2,), ()) in keys


def _rank(rows):
    """Rank over Q of a list of integer vectors."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[c]), None)
        if pivot is None:
            continue
        k = rows.index(pivot, rank)
        rows[rank], rows[k] = rows[k], rows[rank]
        for r in rows[rank + 1:]:
            f = r[c] / pivot[c]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def test_theta_fixed_vectors_span_the_fixed_sublattice():
    for kind, rank in ATLAS_DATA:
        datum = cartan_datum(kind, rank)
        n = datum.n
        for pair in enumerate_admissible(datum):
            vectors = pair.theta_fixed_vectors()
            for k, v in enumerate(vectors):
                assert any(v) and pair.theta(v) == v
                assert v not in vectors[:k] and vec_neg(v) not in vectors[:k]
            # the fixed space is the kernel of Theta - id
            theta_minus_id = [
                [x - (q == p) for q, x in enumerate(pair.theta(datum.simple_root(lab)))]
                for p, lab in enumerate(datum.labels)
            ]
            assert _rank(list(vectors)) == n - _rank(theta_minus_id), pair


def test_node_classes_of_the_parameter_sets():
    a3 = cartan_datum("A", 3)
    split = validate_admissible(a3, set(), {1: 3, 2: 2, 3: 1})
    assert split.theta_orthogonal == (1, 3) and split.isolated == ()
    aiv = validate_admissible(a3, {2}, {1: 3, 2: 2, 3: 1})
    assert aiv.theta_orthogonal == () and aiv.isolated == ()
    a1a1 = CartanDatum([[2, 0], [0, 2]])
    assert validate_admissible(a1a1, set(), {1: 1, 2: 2}).isolated == (1, 2)
    assert validate_admissible(a1a1, set(), {1: 2, 2: 1}).isolated == ()
    # a node whose only neighbours lie in X is not isolated
    c3 = validate_admissible(cartan_datum("C", 3), {1, 3}, {1: 1, 2: 2, 3: 3})
    assert c3.isolated == () and c3.I_ns == ()
    for kind, rank in ATLAS_DATA:
        for pair in enumerate_admissible(cartan_datum(kind, rank)):
            d = pair.datum
            for i in pair.free:
                orthogonal = d.bilinear(d.simple_root(i), pair.theta(d.simple_root(i))) == 0
                assert (i in pair.theta_orthogonal) == orthogonal


def test_theta_2rho_pairing_is_tau_invariant():
    """(alpha_i, Theta(alpha_i) - 2 rho_X) is the same at i and tau(i): tau
    is an isometry that fixes X, commutes with w_X and fixes rho_X.  So the
    canonical parameters are one formula on every free node."""
    data = (
        [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 6)]
        + [("C", r) for r in range(2, 6)] + [("D", 4), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]
        + [("affine:A", r) for r in (1, 2, 3)]
    )
    with_free = 0
    for kind, rank in data:
        for pair in enumerate_admissible(cartan_datum(kind, rank)):
            with_free += bool(pair.free)
            for i in pair.free:
                assert pair.pairing_theta_2rho(pair.tau[i]) == pair.pairing_theta_2rho(i), (pair, i)
    assert with_free == 98


def test_tau_from_swaps():
    a4 = cartan_datum("A", 4)
    assert tau_from_swaps(a4, []) == {1: 1, 2: 2, 3: 3, 4: 4}
    assert tau_from_swaps(a4, [[1, 4], [2, 3]]) == {1: 4, 2: 3, 3: 2, 4: 1}
    # a label must be an int, as in X: a string is refused, not parsed
    with pytest.raises(ValueError, match="is not an integer"):
        tau_from_swaps(a4, [[1, 4], ["2", "3"]])


def test_word_inverse_and_form_invariance():
    rng = random.Random(3)
    for datum in (cartan_datum("A", 3), cartan_datum("B", 3), cartan_datum("G", 2)):
        for _ in range(100):
            word = tuple(rng.choice(datum.labels) for _ in range(rng.randint(1, 6)))
            beta = tuple(rng.randint(-3, 3) for _ in datum.labels)
            gamma = tuple(rng.randint(-3, 3) for _ in datum.labels)
            roundtrip = datum.weyl_action(tuple(reversed(word)), datum.weyl_action(word, beta))
            assert roundtrip == beta
            assert datum.bilinear(
                datum.weyl_action(word, beta), datum.weyl_action(word, gamma)
            ) == datum.bilinear(beta, gamma)


def test_is_reduced():
    a2 = cartan_datum("A", 2)
    assert a2.is_reduced((1, 2, 1))
    assert not a2.is_reduced((1, 1))
    assert not a2.is_reduced((1, 2, 1, 2))
    b2 = cartan_datum("B", 2)
    assert b2.is_reduced((1, 2, 1, 2))
    assert not b2.is_reduced((1, 2, 1, 2, 1))


def test_enumeration_rank_guard():
    n = 11
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    big = CartanDatum(A)
    with pytest.raises(ValueError, match="capped"):
        enumerate_admissible(big)


def test_datum_validation():
    with pytest.raises(ValueError):
        CartanDatum([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanDatum([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanDatum([[2, -1], [-1, 2]], eps=(2, 2))  # not coprime
    datum = CartanDatum([[2, -2], [-1, 2]])
    assert datum.eps == (1, 2)


def test_named_data_are_built_once_per_process():
    a3 = cartan_datum("A", 3)
    assert cartan_datum(" A", 3) is a3
    assert cartan_datum("A", rank=3) is a3
    assert datum_from_json({"type": "A", "rank": 3}) is a3
    assert cartan_datum("affine:A1") is cartan_datum("affine:A", 1)
    assert cartan_datum("affine:A1", 5) is cartan_datum("affine:A", 1)
    assert cartan_datum("A", 4) is not a3
    # an explicit matrix always builds a fresh datum with its own caches
    fresh = CartanDatum(a3.A)
    assert fresh is not a3 and fresh.caches is not a3.caches
    assert datum_from_json(datum_to_json(a3)) is not a3
    with pytest.raises(ValueError):
        cartan_datum("affine:B", 2)


def test_atlas_builds_each_parabolic_and_enumeration_once(monkeypatch, fresh_memos):
    # named data of their own, so no cache warmed by another test hides a rebuild
    import qcoideal.cartan as cartan
    from qcoideal.suites import run_suite

    closures, enumerations = [], []
    build, enumerate_ = cartan._parabolic_data, cartan._enumerate

    def counting_build(datum, X):
        closures.append((datum, X))
        return build(datum, X)

    def counting_enumerate(datum):
        enumerations.append(datum)
        return enumerate_(datum)

    monkeypatch.setattr(cartan, "_parabolic_data", counting_build)
    monkeypatch.setattr(cartan, "_enumerate", counting_enumerate)
    for suite in ("nu-atlas", "bar-z", "bar-examples", "sigma-tau", "qsp-structure"):
        assert run_suite(suite, seed=0)[0]
    assert len(closures) == len({(id(d), X) for d, X in closures}) == 72
    assert len(enumerations) == len({id(d) for d in enumerations}) == 9


def test_infinite_type_is_remembered(monkeypatch):
    import qcoideal.cartan as cartan

    builds = []
    build = cartan._parabolic_data

    def counting_build(datum, X):
        builds.append(X)
        return build(datum, X)

    monkeypatch.setattr(cartan, "_parabolic_data", counting_build)
    aff = CartanDatum(cartan_datum("affine:A", 2).A)
    for _ in range(2):
        with pytest.raises(FiniteTypeError, match="finite type"):
            longest_word(aff, set(aff.labels))
    assert builds == [tuple(aff.labels)]


def test_enumerated_pairs_are_shared_per_datum():
    a3 = cartan_datum("A", 3)
    pairs = enumerate_admissible(a3)
    assert isinstance(pairs, tuple)
    assert enumerate_admissible(a3) is pairs
    fresh = CartanDatum(a3.A)
    own = enumerate_admissible(fresh)
    assert own is not pairs and all(p.datum is fresh for p in own)
    assert [(p.X, p.tau) for p in own] == [(p.X, p.tau) for p in pairs]


def test_validate_admissible_builds_a_new_pair_each_call():
    a3 = cartan_datum("A", 3)
    tau = {1: 3, 2: 2, 3: 1}
    first, second = validate_admissible(a3, {2}, tau), validate_admissible(a3, {2}, tau)
    assert first is not second
    assert first.wX_word == second.wX_word == (2,)
    assert first.two_rho_X == second.two_rho_X == a3.simple_root(2)


def test_a_tau_that_is_no_involution_is_refused():
    """The CLI builds tau from swaps, always an involution, so only the
    Python API can hand `admissible_violations` a three-cycle."""
    A3 = cartan_datum("A", 3)
    violations = admissible_violations(A3, [], {1: 2, 2: 3, 3: 1})
    assert violations == ["tau is not involutive", "tau does not preserve the Cartan matrix"]


def test_admissible_pair_repr_names_x_and_the_moved_nodes():
    A3 = cartan_datum("A", 3)
    assert repr(validate_admissible(A3, [2], tau_from_swaps(A3, [[1, 3]]))) == \
        "AdmissiblePair(X=[2], tau={1: 3, 3: 1})"
    assert repr(validate_admissible(A3, [], tau_from_swaps(A3, []))) == "AdmissiblePair(X=[], tau=id)"
