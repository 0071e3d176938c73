"""Coproduct, the antipode-flip map psi, twisted generators and coideal spans."""

import random

import pytest

from qborel.coeffs import ONE, Q, from_int, qpow
from qborel.errors import HeightOverflow, InvalidTriple
from qborel.rootsys import (
    LatticeSubgroup,
    bilinear,
    build_root_system,
    vec_add,
    vec_neg,
    vec_sub,
)
from qborel.strata import (
    Stratum,
    character,
    enumerate_strata,
    max_admissible_lattice,
    theta_set,
)
from qborel.uqplus.free import FreeElt, word_weight
from qborel.uqplus import hopf
from qborel.uqplus.full import UAlgebra
from qborel.uqplus.hopf import (
    check_coassociativity,
    check_counit_law,
    check_graded_compatibility,
    coideal_check,
    coproduct,
    psi_apply,
    span_is_Q_graded,
    twist_generators,
)
from qborel.uqplus.linalg import SpanSolver, solve_in_span
from qborel.uqplus.pbw import pbw_data
from qborel.weyl import ReducedWord, canonical_word, weyl_group

A2 = build_root_system("A2")
ALG = UAlgebra(A2)
ZERO2 = (0, 0)
A1VEC = A2.simple(1)


def _rand_coeff(rng):
    return from_int(rng.randint(1, 5)) * qpow(rng.randint(-2, 2))


def _rand_elt(alg, rng, hmax):
    rs = alg.rs
    x = alg.zero()
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, hmax)))
        mu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        term = alg.K(mu)
        for i in w:
            term = term * alg.E(i)
        x = x + term.scale(_rand_coeff(rng))
    return x


def test_coproduct_frozen():
    dE = coproduct(ALG, ALG.E(1))
    assert dE.terms == {
        (ZERO2, (1,), ZERO2, ()): ONE,
        (A1VEC, (), ZERO2, (1,)): ONE,
    }
    beta = (1, 2)
    assert coproduct(ALG, ALG.K(beta)).terms == {(beta, (), beta, ()): ONE}
    dE2 = coproduct(ALG, ALG.E(1) * ALG.E(1))
    assert dE2.terms == {
        (ZERO2, (1, 1), ZERO2, ()): ONE,
        (A1VEC, (1,), ZERO2, (1,)): ONE + qpow(-2),
        (vec_add(A1VEC, A1VEC), (), ZERO2, (1, 1)): ONE,
    }


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_coalgebra_laws_sampled(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    rng = random.Random(20260814)
    for _ in range(15):
        x = _rand_elt(alg, rng, 4)
        assert check_coassociativity(alg, x)
        assert check_counit_law(alg, x)
        x2 = _rand_elt(alg, rng, 2)
        y2 = _rand_elt(alg, rng, 2)
        assert coproduct(alg, x2 * y2) == coproduct(alg, x2) * coproduct(alg, y2)


def test_laws_read_the_coproduct_they_are_given():
    x = ALG.E(1) * ALG.E(2) + ALG.K((1, -1))
    t = coproduct(ALG, x)
    assert hopf._coassociative(ALG, t) and hopf._counit_law_holds(x, t)
    # a tensor that is not Delta(x): E_1 (x) E_1 breaks coassociativity, and
    # dropping the term 1 (x) E_1 E_2 breaks the counit law
    bad = t + hopf.TensorElt(ALG, {(ZERO2, (1,), ZERO2, (1,)): ONE})
    assert not hopf._coassociative(ALG, bad) and hopf._counit_law_holds(x, bad)
    cut = hopf.TensorElt(ALG, {k: c for k, c in t.terms.items() if k[1]})
    assert not hopf._counit_law_holds(x, cut)


def test_suite_hopf_forms_one_coproduct_per_sample(monkeypatch):
    from qborel import cli

    samples = []
    real = cli.coproduct
    monkeypatch.setattr(cli, "coproduct", lambda alg, x: samples.append(x) or real(alg, x))
    checks = cli.suite_hopf(A2, "A2")
    assert all(c.ok for c in checks)
    assert len(samples) == 25


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_graded_compatibility_sampled(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    rng = random.Random(7)
    hits = 0
    for _ in range(25):
        w = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4)))
        comp = alg.nf.complement_basis(word_weight(w, rs.rank))
        if not comp:
            continue
        f = FreeElt({wd: _rand_coeff(rng) for wd in comp})
        beta = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        assert check_graded_compatibility(alg, alg.from_free(f) * alg.K(beta))
        hits += 1
    assert hits > 5


def test_psi_frozen():
    assert psi_apply(ALG, ALG.one()) == ALG.one()
    neg = tuple(-c for c in A1VEC)
    assert psi_apply(ALG, ALG.E(1)).terms == {((), neg, (1,)): qpow(1)}


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_psi_multiplicative(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    rng = random.Random(20260814)
    cnt = 0
    for _ in range(30):
        wx = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 2)))
        wy = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(0, 2)))
        cx = alg.nf.complement_basis(word_weight(wx, rs.rank))
        cy = alg.nf.complement_basis(word_weight(wy, rs.rank))
        if not cx or not cy:
            continue
        x = alg.from_free(FreeElt({wd: _rand_coeff(rng) for wd in cx}))
        y = alg.from_free(FreeElt({wd: _rand_coeff(rng) for wd in cy}))
        assert psi_apply(alg, x * y) == psi_apply(alg, x) * psi_apply(alg, y)
        cnt += 1
    assert cnt > 10


def test_epsilon_twist_is_psi_of_root_vectors():
    word = ReducedWord(A2, (1, 2, 1))
    ch = character(Stratum(theta_set(word, ())), {})
    gens = twist_generators(ALG, ch, LatticeSubgroup.from_generators(2, []))
    data = pbw_data(ALG, word)
    assert len(gens) == 3
    for i in range(3):
        assert gens[i] == psi_apply(ALG, data.free_vectors[i]), i


def test_rank_one_twist_generator():
    rs = build_root_system("A1")
    alg = UAlgebra(rs)
    word = ReducedWord(rs, (1,))
    c = from_int(3)
    ch = character(Stratum(theta_set(word, (1,))), {rs.simple(1): c})
    g = twist_generators(alg, ch, LatticeSubgroup.from_generators(1, []))
    assert len(g) == 1
    assert g[0].terms == {((), (-1,), ()): c, ((), (-1,), (1,)): qpow(1)}
    with pytest.raises(InvalidTriple):
        twist_generators(alg, ch, LatticeSubgroup.from_generators(1, [(1,)]))


def test_coideal_check_basics():
    assert coideal_check(ALG, [ALG.K((1, 1)), ALG.K((-1, -1))], 4)
    assert not coideal_check(ALG, [ALG.E(1)], 4)
    # a generator mixing two K-components whose coproduct leaks
    bad = psi_apply(ALG, ALG.E(1)) + ALG.K((0, -1))
    assert not coideal_check(ALG, [bad], 4)


def test_mixed_degree_generator_next_to_grouplikes_is_refused():
    # E_1 (1 - K_1) vanishes modulo L = Z alpha_1, so the model would pass it
    k1, k1inv = ALG.K(A1VEC), ALG.K((-1, 0))
    with pytest.raises(ValueError):
        coideal_check(ALG, [ALG.E(1) - ALG.E(1) * k1, k1, k1inv], 4)
    with pytest.raises(ValueError):
        span_is_Q_graded(ALG, [ALG.E(1) + k1 * ALG.E(1), k1, k1inv], 4)


def test_a2_strata_give_right_coideals():
    word = ReducedWord(A2, (1, 2, 1))
    for st in enumerate_strata(word):
        ch = character(st, {b: ONE for b in st.theta.roots})
        L = max_admissible_lattice(ch)
        gens = twist_generators(ALG, ch, L)
        assert coideal_check(ALG, gens, 4), st.theta.indices
        assert span_is_Q_graded(ALG, gens, 4), st.theta.indices


def _shift_oracle(alg, gens, h):
    """Span membership with every K_L-shift of the basis written out.

    The products of the non-grouplike generators up to height h are kept
    unreduced; a query v is solved against each basis vector translated
    by every lattice vector that moves one of its K-exponents onto one of
    v's, with the commutation scalar of right multiplication by K_lam.
    Returns L, that membership test and the spanning products.
    """
    lat, others = [], []
    for g in gens:
        if g.is_zero():
            continue
        keys = list(g.terms)
        if len(keys) == 1 and not keys[0][2]:
            if any(keys[0][1]):
                lat.append(keys[0][1])
        else:
            others.append(g)
    L = LatticeSubgroup.from_generators(alg.rs.rank, lat)
    heights = [max(1, max(len(ew) for (fw, mu, ew) in g.terms)) for g in others]
    solver, basis, elements = SpanSolver(), [], []

    def products(idx, budget, acc):
        vec = {(mu, ew): c for (fw, mu, ew), c in acc.terms.items()}
        if vec and solver.insert(vec):
            basis.append(vec)
            elements.append(acc)
        for j in range(idx, len(others)):
            if heights[j] <= budget:
                products(j, budget - heights[j], acc * others[j])

    products(0, h, alg.one())

    def in_span(v):
        if not v:
            return True
        cands = []
        for p in basis:
            for lam in {vec_sub(vk, pk) for (pk, pe) in p for (vk, ve) in v}:
                if L.contains(lam):
                    cands.append({
                        (vec_add(pk, lam), pe): c * qpow(-bilinear(alg.rs, lam, alg._wt(pe)))
                        for (pk, pe), c in p.items()
                    })
        return solve_in_span(cands, v) is not None

    return L, in_span, elements


def _left_legs(alg, x):
    """The left tensor legs of Delta(x), one per right key."""
    grouped = {}
    for (k1, e1, k2, e2), c in coproduct(alg, x).terms.items():
        grouped.setdefault((k2, e2), {})[(k1, e1)] = c
    return list(grouped.values())


def _span_cases(alg):
    """Generator lists for the coideal span tests: the twisted generators of
    every stratum of each word whose roots have height at most 4, then
    three hand-built cases."""
    rs = alg.rs
    cases = []
    for g in weyl_group(rs):
        word = ReducedWord(rs, canonical_word(g))
        if any(sum(b) > 4 for b in word.roots):
            continue
        for st in enumerate_strata(word):
            ch = character(st, {b: ONE for b in st.theta.roots})
            cases.append(twist_generators(alg, ch, max_admissible_lattice(ch)))
    cases.append([alg.E(1)])
    # E-weights that pair differently with L, so the scalar of a shift matters
    a1 = rs.simple(1)
    cases.append([alg.E(1) + alg.E(2), alg.K(a1), alg.K(vec_neg(a1))])
    cases.append([psi_apply(alg, alg.E(1)) + alg.K(vec_neg(rs.simple(2)))])
    return cases


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_in_span_matches_shift_oracle(monkeypatch, label):
    rs = build_root_system(label)
    alg = ALG if label == "A2" else UAlgebra(rs)
    asked = []
    real = hopf._GeneratedSpan.in_span

    def spy(self, v):
        ans = real(self, v)
        asked.append((v, ans))
        return ans

    monkeypatch.setattr(hopf._GeneratedSpan, "in_span", spy)
    n_queries = n_shifted = n_false = 0
    for gens in _span_cases(alg):
        asked.clear()
        coideal_check(alg, gens, 4)
        sp = hopf._generated_span(alg, gens, 4)
        L, oracle, elements = _shift_oracle(alg, gens, 4)
        # the coproduct legs of every spanning product, and its K-shifts on
        # either side, which test the scalar
        for x in elements:
            for left in _left_legs(alg, x):
                sp.in_span(left)
            for row in sp.lat_rows:
                for y in (x * alg.K(row), alg.K(row) * x):
                    sp.in_span({(mu, ew): c for (fw, mu, ew), c in y.terms.items()})
        for v, ans in asked:
            assert ans == oracle(v), (gens, v)
            n_false += not ans
        n_queries += len(asked)
        n_shifted += len(asked) * (L.rank > 0)
    assert n_queries > 50 and n_shifted > 0 and n_false > 0


def _all_products_reference(alg, gens, h):
    """(coideal, graded) tested on every spanning product that raises the
    rank of the span, not on the generators alone: the reference for
    coideal_check and span_is_Q_graded."""
    sp = hopf._GeneratedSpan(alg, gens, h)
    heights = [max(1, max(len(ew) for (fw, mu, ew) in g.terms)) for g in sp.gens]
    solver, elements = SpanSolver(), []

    def products(idx, budget, acc):
        vec = sp._reduced({(mu, ew): c for (fw, mu, ew), c in acc.terms.items()})
        if vec and solver.insert(vec):
            elements.append(acc)
        for j in range(idx, len(sp.gens)):
            if heights[j] <= budget:
                products(j, budget - heights[j], acc * sp.gens[j])

    products(0, h, alg.one())
    graded = all(hopf._kexp_parts_in_span(sp, x) for x in elements)
    legs_ok = all(sp.in_span(v) for x in elements for v in _left_legs(alg, x))
    return graded and legs_ok, graded


def _verdict(f):
    try:
        return f()
    except (ValueError, HeightOverflow) as exc:
        return type(exc).__name__


def _differential_cases(alg):
    """The twisted generators of every stratum of each word whose roots
    have height at most 4, for phi in {1, q, 3} and L in {L_max, 0}, each
    also with E_i appended, added to the last root generator, and
    multiplied onto it from the right."""
    rs = alg.rs
    for g in weyl_group(rs):
        word = ReducedWord(rs, canonical_word(g))
        if any(sum(b) > 4 for b in word.roots):
            continue
        t = len(word.letters)
        for st in enumerate_strata(word):
            for phi in (ONE, Q, from_int(3)):
                ch = character(st, {b: phi for b in st.theta.roots})
                for L in (max_admissible_lattice(ch), LatticeSubgroup.from_generators(rs.rank, [])):
                    gens = twist_generators(alg, ch, L)
                    yield gens
                    for i in range(1, rs.rank + 1):
                        e = alg.E(i)
                        yield gens + [e]
                        if t:
                            yield gens[:t - 1] + [gens[t - 1] + e] + gens[t:]
                            yield gens[:t - 1] + [gens[t - 1] * e] + gens[t:]


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_generator_test_matches_all_products_reference(label):
    rs = build_root_system(label)
    alg = ALG if label == "A2" else UAlgebra(rs)
    seen = {}
    for gens in _differential_cases(alg):
        key = tuple(gens)
        if key in seen:
            continue
        ref = _verdict(lambda: _all_products_reference(alg, gens, 4))
        got = _verdict(lambda: (coideal_check(alg, gens, 4), span_is_Q_graded(alg, gens, 4)))
        assert got == ref, gens
        seen[key] = ref
    outcomes = {v if isinstance(v, str) else v[0] for v in seen.values()}
    assert {True, False, "ValueError"} <= outcomes, outcomes
    if label == "G2":
        # only G2 has a root generator of height 4 to push past the bound
        assert "HeightOverflow" in outcomes


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_lattice_rows_are_in_their_span(label):
    # why coideal_check asks nothing about its grouplike generators
    rs = build_root_system(label)
    alg = ALG if label == "A2" else UAlgebra(rs)
    n_rows = 0
    for gens in _span_cases(alg):
        sp = hopf._generated_span(alg, gens, 4)
        for row in sp.lat_rows:
            assert sp.in_span({(row, ()): ONE}), (gens, row)
            n_rows += 1
    assert n_rows > 0


def _grown_to_h(alg, gens, h):
    """The span of gens with every level up to h built at once."""
    sp = hopf._GeneratedSpan(alg, gens, h)
    while sp.level < h:
        sp._add_level()
    return sp


def _queries(alg, sp):
    """The queries coideal_check and span_is_Q_graded ask, in their order,
    then the K-degree parts of the generators' products by one another
    that stay within the height bound."""
    for g in sp.gens:
        yield from _left_legs(alg, g)
    ht = {id(g): max(len(ew) for (fw, mu, ew) in g.terms) for g in sp.gens}
    pairs = [a * b for a in sp.gens for b in sp.gens if ht[id(a)] + ht[id(b)] <= sp.h]
    for x in sp.gens + pairs:
        by_kexp = {}
        for (fw, mu, ew), c in x.terms.items():
            by_kexp.setdefault(mu, {})[(mu, ew)] = c
        yield from by_kexp.values()


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_on_demand_span_answers_as_the_span_grown_to_h(label):
    rs = build_root_system(label)
    alg = ALG if label == "A2" else UAlgebra(rs)
    seen = set()
    n_queries = n_false = n_early = 0
    for gens in list(_span_cases(alg)) + list(_differential_cases(alg)):
        key = tuple(gens)
        if key in seen:
            continue
        seen.add(key)
        try:
            lazy = hopf._GeneratedSpan(alg, gens, 4)
        except (ValueError, HeightOverflow):
            continue
        full = _grown_to_h(alg, gens, 4)
        for v in _queries(alg, lazy):
            ans = lazy.in_span(v)
            assert ans == full.in_span(v), (gens, v)
            n_queries += 1
            n_false += not ans
            n_early += ans and lazy.level < 4
        assert lazy.level <= full.level == 4
    assert n_queries > 500 and n_false > 0 and n_early > 0


def test_b2_w0_strata_pass_below_the_height_bound():
    rs = build_root_system("B2")
    alg = UAlgebra(rs)
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    word = ReducedWord(rs, canonical_word(w0))
    n_strata = 0
    for st in enumerate_strata(word):
        ch = character(st, {b: ONE for b in st.theta.roots})
        gens = twist_generators(alg, ch, max_admissible_lattice(ch))
        assert coideal_check(alg, gens, 4), st.theta.indices
        sp = hopf._generated_span(alg, gens, 4)
        assert sp.level < 4, st.theta.indices
        n_strata += 1
    assert n_strata > 1


def test_a_query_outside_the_span_grows_it_to_h():
    sp = hopf._GeneratedSpan(ALG, [ALG.E(1)], 4)
    assert sp.level == 0
    # E_1^2 lies in S_2 and is found there
    assert sp.in_span({(ZERO2, (1, 1)): ONE})
    assert sp.level == 2
    assert not sp.in_span({(ZERO2, (2,)): ONE})
    assert sp.level == 4
    # the failing coideal query is decided on S_4 too
    assert not coideal_check(ALG, [ALG.E(1)], 4)
    assert hopf._generated_span(ALG, [ALG.E(1)], 4).level == 4


def test_a_span_above_the_height_bound_fails_fast():
    alg = UAlgebra(build_root_system("A1"))
    assert alg.nf.height_bound == 2
    # span_is_Q_graded asks no query about E_1, in one K-degree, so only
    # the construction can refuse h above the bound
    for ask in (coideal_check, span_is_Q_graded):
        with pytest.raises(HeightOverflow):
            ask(alg, [alg.E(1)], 4)
    # grouplikes alone build no product
    assert coideal_check(alg, [alg.K((1,)), alg.K((-1,))], 4)
    assert coideal_check(alg, [alg.E(1)], 2) is False


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_twist_rows_leak_no_character_value(label):
    rs = build_root_system(label)
    shared = UAlgebra(rs)
    n_calls = 0
    for g in weyl_group(rs):
        word = ReducedWord(rs, canonical_word(g))
        if any(sum(b) > 4 for b in word.roots):
            continue
        for st in enumerate_strata(word):
            for phi in (ONE, Q, from_int(3)):
                ch = character(st, {b: phi for b in st.theta.roots})
                L = max_admissible_lattice(ch)
                got = twist_generators(shared, ch, L)
                want = twist_generators(UAlgebra(rs), ch, L)
                assert [x.terms for x in got] == [x.terms for x in want], (word.letters, phi)
                n_calls += 1
    assert n_calls > 10
