"""PBW bases, straightening relations, characters and polynomial quotients."""

import random
from itertools import combinations

import pytest

from qborel.coeffs import ONE, ZERO, parse, qpow
from qborel.errors import BadIndex, HeightOverflow, NotInSubalgebra
from qborel.rootsys import bilinear, build_root_system
from qborel.strata import Stratum, character, enumerate_Tw, theta_set
from qborel.uqplus.free import FreeElt, kostant_dim
from qborel.uqplus.full import UAlgebra, lusztig_T
from qborel.uqplus import pbw as pbw_module
from qborel.uqplus.linalg import SpanSolver
from qborel.uqplus.pbw import (
    char_eval,
    char_well_defined,
    enumerate_polynomial_ideals,
    ls_relation,
    pbw_contract,
    pbw_data,
    pbw_expand,
    quotient_is_commutative_polynomial,
)
from qborel.weyl import ReducedWord, all_reduced_words, canonical_word, weyl_group

A2 = build_root_system("A2")
ALG_A = UAlgebra(A2)
W0_A = ReducedWord(A2, (1, 2, 1))


def _longest_word(rs):
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    return ReducedWord(rs, canonical_word(w0))


def _weights(n, b):
    if n == 1:
        return [(h,) for h in range(b + 1)]
    return [(h,) + rest for h in range(b + 1) for rest in _weights(n - 1, b - h)]


def test_reordering_frozen_example():
    # E_{b1} E_{b3} straightens to q^-1 E_{b3}E_{b1} + c E_{b2}
    data = pbw_data(ALG_A, W0_A)
    x = data.free_vectors[0] * data.free_vectors[2]
    v = pbw_expand(ALG_A, W0_A, x)
    assert set(v.terms) == {(1, 0, 1), (0, 1, 0)}
    assert v.terms[(1, 0, 1)] == parse("q^-1")
    assert v.terms[(0, 1, 0)] != ZERO


def test_monomial_round_trips():
    data = pbw_data(ALG_A, W0_A)
    cnt = 0
    for h1 in range(3):
        for h2 in range(3):
            for a in data.exponents_of_weight((h1, h2)):
                m = data.monomial(a)
                back = pbw_expand(ALG_A, W0_A, m)
                assert back.terms == {a: ONE}
                assert pbw_contract(ALG_A, W0_A, back) == m
                cnt += 1
    assert cnt > 10


def test_ls_relation_frozen():
    assert ls_relation(ALG_A, W0_A, 1, 2).is_zero()
    r13 = ls_relation(ALG_A, W0_A, 1, 3)
    assert set(r13.terms) == {(0, 1, 0)}
    with pytest.raises(BadIndex):
        ls_relation(ALG_A, W0_A, 3, 1)
    with pytest.raises(BadIndex):
        ls_relation(ALG_A, W0_A, 0, 2)


def test_not_in_subalgebra():
    w1 = ReducedWord(A2, (1,))
    with pytest.raises(NotInSubalgebra):
        pbw_expand(ALG_A, w1, FreeElt.gen(2))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_ls_shape(label):
    # support of ls_relation(i,j) sits strictly between i and j
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    w0 = _longest_word(rs)
    t = len(w0.letters)
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            rel = ls_relation(alg, w0, i, j)
            for a in rel.terms:
                assert all(e == 0 for e in a[:i]), (label, i, j, a)
                assert all(e == 0 for e in a[j - 1:]), (label, i, j, a)


def _t_chain_root_vectors(alg, word):
    """E_{beta_k} = T_{i_1}(T_{i_2}(... T_{i_{k-1}}(E_{i_k}))), applied right to left."""
    out = []
    for k, a in enumerate(word.letters):
        x = alg.E(a)
        for b in reversed(word.letters[:k]):
            x = lusztig_T(alg, b, x)
        out.append(x.as_free())
    return out


def _direct_ls(alg, word, vectors, i, j):
    """pbw_expand of E_i E_j - q^(beta_i, beta_j) E_j E_i, on the word itself."""
    ei, ej = vectors[i - 1], vectors[j - 1]
    scal = qpow(bilinear(alg.rs, word.roots[i - 1], word.roots[j - 1]))
    return pbw_expand(alg, word, ei * ej - (ej * ei).scale(scal))


def _oracle_words(label):
    """Every reduced word of w0 in rank 2 and A3; three seeded ones in B3 and C3."""
    rs = build_root_system(label)
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    words = sorted(all_reduced_words(w0))
    if label in ("B3", "C3"):
        words = random.Random(13).sample(words, 3)
    return [ReducedWord(rs, letters) for letters in words]


ORACLE_TYPES = ["A2", "B2", "G2", "A3", "B3", "C3"]


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_root_vectors_match_the_t_chain(label):
    # the oracle runs on its own algebra, so it reads none of the T-images
    # or root vectors that the code under test keeps on alg
    rs = build_root_system(label)
    alg, oracle = UAlgebra(rs), UAlgebra(rs)
    for word in _oracle_words(label):
        got = pbw_data(alg, word).free_vectors
        assert list(got) == _t_chain_root_vectors(oracle, word), word.letters


@pytest.mark.parametrize("label", ORACLE_TYPES)
def test_ls_relation_matches_the_direct_expansion(label):
    # pairs with i >= 2 come from the suffix word; the oracle never leaves the word
    rs = build_root_system(label)
    alg, oracle = UAlgebra(rs), UAlgebra(rs)
    for word in _oracle_words(label):
        vectors = _t_chain_root_vectors(oracle, word)
        t = len(word.letters)
        for i, j in combinations(range(1, t + 1), 2):
            got = ls_relation(alg, word, i, j)
            want = _direct_ls(oracle, word, vectors, i, j)
            assert got == want, (label, word.letters, i, j)
            assert got.render() == want.render()


@pytest.mark.parametrize("label,height", [("A3", 3), ("B3", 4), ("C3", 3)])
def test_ls_relation_under_an_explicit_height(label, height):
    # a pair whose direct expansion fits the height must come out of
    # ls_relation too, also where its suffix pair lies above the height
    rs = build_root_system(label)
    guarded = 0
    for g in weyl_group(rs):
        for letters in all_reduced_words(g):
            word = ReducedWord(rs, letters)
            alg = UAlgebra(rs, height)
            try:
                vectors = _t_chain_root_vectors(alg, word)
            except HeightOverflow:
                continue
            for i, j in combinations(range(1, len(letters) + 1), 2):
                if sum(word.roots[i - 1]) + sum(word.roots[j - 1]) > height:
                    continue
                try:
                    want = _direct_ls(alg, word, vectors, i, j)
                except HeightOverflow:
                    continue
                assert ls_relation(alg, word, i, j) == want, (letters, i, j)
                suffix = ReducedWord(rs, letters[i - 1:])
                if i > 1 and 1 + sum(suffix.roots[j - i]) > height:
                    guarded += 1
    assert guarded > 0


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_pbw_dims_match_kostant(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    w0 = _longest_word(rs)
    d = pbw_data(alg, w0)
    bound = alg.nf.height_bound
    for mu in _weights(rs.rank, bound):
        expts = d.exponents_of_weight(mu)
        dim = alg.nf.dim_plus(mu)
        assert len(expts) == dim == kostant_dim(rs, mu), (label, mu)
        solver = SpanSolver()
        for a in expts:
            assert solver.insert(dict(d.monomial(a).terms)), (label, mu, a)


@pytest.mark.parametrize("label", ["B2", "G2", "A3"])
def test_monomial_is_the_product_of_root_vectors(label):
    """Each cached monomial against E_{beta_t}^{a_t} ... E_{beta_1}^{a_1}
    multiplied out from the right, reduced after every factor."""
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    d = pbw_data(alg, _longest_word(rs))
    for mu in _weights(rs.rank, alg.nf.height_bound):
        for a in d.exponents_of_weight(mu):
            prod = FreeElt.one()
            for k, e in enumerate(a):
                for _ in range(e):
                    prod = alg.nf.reduce(d.free_vectors[k] * prod)
            assert d.monomial(a) == prod, (label, a)


def test_pbw_dims_g2_spot():
    rs = build_root_system("G2")
    alg = UAlgebra(rs)
    d = pbw_data(alg, _longest_word(rs))
    for mu in [(0, 0), (1, 0), (2, 1), (3, 1), (3, 2), (4, 2)]:
        expts = d.exponents_of_weight(mu)
        assert len(expts) == alg.nf.dim_plus(mu) == kostant_dim(rs, mu), mu


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_char_dichotomy(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    for g in sorted(weyl_group(rs), key=lambda g: g.length):
        word = ReducedWord(rs, canonical_word(g))
        t = len(word.letters)
        good = {th.indices for th in enumerate_Tw(word)}
        for size in range(t + 1):
            for S in combinations(range(1, t + 1), size):
                assert char_well_defined(alg, word, S) == (S in good), (label, S)


def test_char_concrete_examples():
    assert not char_well_defined(ALG_A, W0_A, {1, 3}, {1: ONE, 3: ONE})
    assert char_well_defined(ALG_A, W0_A, {1}, {1: ONE})
    assert char_well_defined(ALG_A, W0_A, (), {})


def test_char_eval():
    st = Stratum(theta_set(W0_A, (1,)))
    ch = character(st, {st.theta.roots[0]: ONE})
    assert char_eval(ch, pbw_expand(ALG_A, W0_A, FreeElt.gen(1))) == ONE
    assert char_eval(ch, ls_relation(ALG_A, W0_A, 1, 3)) == ZERO


def test_quotient_a2_examples():
    assert not quotient_is_commutative_polynomial(ALG_A, W0_A, {2})
    assert quotient_is_commutative_polynomial(ALG_A, W0_A, {1})
    assert quotient_is_commutative_polynomial(ALG_A, W0_A, {3})
    assert quotient_is_commutative_polynomial(ALG_A, W0_A, ())


def test_quotient_b2_middle_index():
    # theta = {2} on (2,1,2) is not in T^w; freeness over the theta cone
    # has to catch it, plain commutativity of the images does not
    rs = build_root_system("B2")
    alg = UAlgebra(rs)
    word = ReducedWord(rs, (2, 1, 2))
    assert not quotient_is_commutative_polynomial(alg, word, {2})
    assert quotient_is_commutative_polynomial(alg, word, {1, 3})


def test_enumerate_a2():
    got = enumerate_polynomial_ideals(ALG_A, W0_A)
    assert got == [(), (1,), (3,)]
    want = sorted(th.indices for th in enumerate_Tw(W0_A))
    assert sorted(got) == want


@pytest.mark.parametrize("label", ["B2", "A3"])
def test_enumerate_every_element(label):
    # the blind search over index subsets, on the canonical word of every
    # element; the suites run it on w0 alone from rank 3 up
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    for g in sorted(weyl_group(rs), key=lambda g: g.length):
        word = ReducedWord(rs, canonical_word(g))
        good = sorted(th.indices for th in enumerate_Tw(word))
        got = sorted(enumerate_polynomial_ideals(alg, word))
        assert got == good, (word.letters, got, good)


def _columns(data, bound):
    """Every (k, a) with the weight of a plus beta_k of height at most bound."""
    rank = len(data.roots[0])
    for k, beta in enumerate(data.roots, start=1):
        for mu in _weights(rank, bound - sum(beta)):
            for a in data.exponents_of_weight(mu):
                yield k, a


@pytest.fixture
def solves(monkeypatch):
    """One entry per solve_in_span call made through the pbw module."""
    calls = []
    solve = pbw_module.solve_in_span
    monkeypatch.setattr(
        pbw_module, "solve_in_span", lambda *args: calls.append(args) or solve(*args)
    )
    return calls


# G2 at height 7, the least that holds its root vectors (480 columns):
# its default height 10 has 1,858, and the oracle takes 100 s over them
WINDOW_TYPES = [("A2", None), ("B2", None), ("G2", 7), ("A3", None)]


@pytest.mark.parametrize("label,height", WINDOW_TYPES)
def test_left_mult_column_matches_the_whole_weight_expansion(label, height):
    # the oracle expands the reduced product on every monomial of its
    # weight, on its own algebra, so it shares no cache with the column
    rs = build_root_system(label)
    alg, oracle = UAlgebra(rs, height), UAlgebra(rs, height)
    checked = shortcut = 0
    for word in _oracle_words(label):
        data, odata = pbw_data(alg, word), pbw_data(oracle, word)
        for k, a in _columns(data, alg.nf.height_bound):
            got = data.left_mult_column(k, a)
            prod = oracle.nf.reduce(odata.free_vectors[k - 1] * odata.monomial(a))
            assert got == pbw_expand(oracle, word, prod).terms, (word.letters, k, a)
            if all(e == 0 for e in a[k:]):
                assert got == {a[: k - 1] + (a[k - 1] + 1,) + a[k:]: ONE}
                shortcut += 1
            checked += 1
    assert shortcut < checked


@pytest.mark.parametrize("label,height", WINDOW_TYPES)
def test_the_window_never_falls_back(label, height, solves, monkeypatch):
    # every element expanded here has one weight, so a window that holds
    # makes one solve and a fallback to the whole weight makes two
    per_call = []
    expand = pbw_module._PBWData.expand

    def counted(self, *args):
        before = len(solves)
        out = expand(self, *args)
        per_call.append(len(solves) - before)
        return out

    monkeypatch.setattr(pbw_module._PBWData, "expand", counted)
    rs = build_root_system(label)
    alg = UAlgebra(rs, height)
    for word in _oracle_words(label):
        data = pbw_data(alg, word)
        for i, j in combinations(range(1, len(word.letters) + 1), 2):
            ls_relation(alg, word, i, j)
        for k, a in _columns(data, alg.nf.height_bound):
            data.left_mult_column(k, a)
    assert max(per_call) == 1


def test_a_window_too_narrow_falls_back_to_the_whole_weight(solves):
    # ls_relation(1, 3) on A2 is c * E_{beta_2}; a window that misses
    # position 2 must still give it, from the whole weight
    alg = UAlgebra(A2)
    data = pbw_data(alg, W0_A)
    e1, e3 = data.free_vectors[0], data.free_vectors[2]
    x = e1 * e3 - (e3 * e1).scale(qpow(bilinear(A2, W0_A.roots[0], W0_A.roots[2])))
    want = pbw_expand(alg, W0_A, x)
    assert set(want.terms) == {(0, 1, 0)}
    del solves[:]
    assert data.expand(x, 2, 2) == want
    assert len(solves) == 1
    for lo, hi in [(1, 1), (3, 3), (2, 1)]:
        del solves[:]
        assert data.expand(x, lo, hi) == want, (lo, hi)
        assert len(solves) == 2, (lo, hi)
    # x + E_{beta_1} has the weights beta_2 and beta_1: the window 1..2
    # holds both, and the window 2..2 only the first, so the second alone
    # is solved again on its whole weight
    want = pbw_expand(UAlgebra(A2), W0_A, x + e1)
    assert set(want.terms) == {(0, 1, 0), (1, 0, 0)}
    for (lo, hi), made in [((1, 2), 2), ((2, 2), 3)]:
        del solves[:]
        assert data.expand(x + e1, lo, hi) == want, (lo, hi)
        assert len(solves) == made, (lo, hi)
    with pytest.raises(NotInSubalgebra):
        pbw_data(alg, ReducedWord(A2, (1,))).expand(FreeElt.gen(2), 1, 1)
    # on the whole word there is nothing to fall back to: E_1 E_2 is not a
    # multiple of E_{beta_2}, the one monomial of its weight for s1 s2
    del solves[:]
    with pytest.raises(NotInSubalgebra, match="outside the span"):
        pbw_expand(alg, ReducedWord(A2, (1, 2)), FreeElt({(1, 2): ONE}))
    assert len(solves) == 1

