"""Admissible subsets, the strata they index, and the classification table."""

import json
from itertools import combinations

import pytest

from qborel.cli import suite_strata
from qborel.coeffs import ONE, ZERO, from_int
from qborel.errors import NotInWw, NotOrthogonal
from qborel.rootsys import LatticeSubgroup, bilinear, build_root_system
from qborel.strata import (
    CoidealTriple,
    Stratum,
    ThetaSet,
    character,
    classify,
    enumerate_strata,
    enumerate_Tw,
    kappa,
    kappa_inverse,
    max_admissible_lattice,
    theta_set,
    validate_triple,
)
from qborel.weyl import (
    ReducedWord,
    WeylElt,
    all_reduced_words,
    bruhat_le,
    canonical_word,
    from_word,
    identity,
    reflection_of_root,
    weyl_group,
)

A2 = build_root_system("A2")
W0_A2 = from_word(A2, (1, 2, 1))
WORD_A2 = ReducedWord(A2, (1, 2, 1))


def product_of_reflections(rs, roots):
    prod = identity(rs)
    for beta in roots:
        prod = prod * reflection_of_root(rs, beta)
    return prod


def brute_Tw(word):
    """Independent oracle: test all 2^t subsets against the definition."""
    rs = word.rs
    betas = word.roots
    t = len(betas)
    out = set()
    for m in range(t + 1):
        for combo in combinations(range(1, t + 1), m):
            roots = [betas[i - 1] for i in combo]
            if any(
                bilinear(rs, roots[a], roots[b]) != 0
                for a in range(m)
                for b in range(a + 1, m)
            ):
                continue
            if (product_of_reflections(rs, roots) * word.element).length == t - m:
                out.add(combo)
    return out


def test_a2_headline():
    tw = enumerate_Tw(WORD_A2)
    assert {th.roots for th in tw} == {(), ((1, 0),), ((0, 1),)}
    strata = enumerate_strata(WORD_A2)
    assert sorted(st.dim for st in strata) == [0, 1, 1]
    assert {canonical_word(st.y) for st in strata} == {(1, 2, 1), (2, 1), (1, 2)}


def test_b2_word_212():
    word = ReducedWord(build_root_system("B2"), (2, 1, 2))
    tw = enumerate_Tw(word)
    assert [th.indices for th in tw] == [(), (1,), (3,), (1, 3)]


def test_a3_w0():
    a3 = build_root_system("A3")
    w0 = max(weyl_group(a3), key=lambda g: g.length)
    word = ReducedWord(a3, canonical_word(w0))
    tw = enumerate_Tw(word)
    assert sorted(th.indices for th in tw) == [(), (1,), (1, 6), (3,), (6,)]
    assert {th.indices for th in tw} == brute_Tw(word)


def test_w_theta():
    assert theta_set(WORD_A2, ()).y == W0_A2
    th = theta_set(WORD_A2, (1,))
    assert canonical_word(th.y) == (2, 1)
    assert th.y == product_of_reflections(A2, th.roots) * W0_A2
    with pytest.raises(NotOrthogonal):
        theta_set(WORD_A2, (1, 3))
    with pytest.raises(NotOrthogonal):
        th.extend(3)
    with pytest.raises(ValueError):
        th.extend(1)
    with pytest.raises(ValueError):
        theta_set(WORD_A2, ()).extend(4)
    assert theta_set(WORD_A2, ()).extend(3).y == theta_set(WORD_A2, (3,)).y


def test_theta_set_certificates():
    th = theta_set(WORD_A2, (1,))
    assert th.roots == ((1, 0),)
    assert th.word.element == W0_A2
    assert th.y == product_of_reflections(A2, th.roots) * W0_A2
    with pytest.raises(NotOrthogonal):
        theta_set(WORD_A2, (1, 2))
    with pytest.raises(ValueError):
        theta_set(WORD_A2, (5,))
    with pytest.raises(ValueError):
        ThetaSet(WORD_A2, (3, 1))
    with pytest.raises(ValueError):
        # orthogonality holds but the length drops by two, not one per root
        ThetaSet(WORD_A2, (2,))


def test_list_input_equals_tuple_input():
    from qborel.uqplus.full import UAlgebra
    from qborel.uqplus.pbw import ls_relation

    word = ReducedWord(A2, [1, 2, 1])
    assert word.letters == (1, 2, 1)
    assert word == WORD_A2 and hash(word) == hash(WORD_A2)
    assert ReducedWord(A2, (i for i in (1, 2, 1))) == WORD_A2
    th = ThetaSet(word, [3])
    assert th.indices == (3,) and th == ThetaSet(WORD_A2, (3,))
    alg = UAlgebra(A2)
    assert ls_relation(alg, word, 1, 3) == ls_relation(alg, WORD_A2, 1, 3)


def test_kappa_round_trip():
    tw = enumerate_Tw(WORD_A2)
    for th in tw:
        assert kappa_inverse(WORD_A2, kappa(th)).indices == th.indices
    with pytest.raises(NotInWw):
        kappa_inverse(WORD_A2, identity(A2))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_rank2_exhaustive(label):
    rs = build_root_system(label)
    for w in weyl_group(rs):
        seen = None
        for letters in all_reduced_words(w):
            word = ReducedWord(rs, letters)
            tw = enumerate_Tw(word)
            idxsets = {th.indices for th in tw}
            assert idxsets == brute_Tw(word), (label, letters)
            for th in tw:
                for m in range(len(th.indices)):
                    for combo in combinations(th.indices, m):
                        assert combo in idxsets
            ys = set()
            for th in tw:
                y = kappa(th)
                assert y == product_of_reflections(rs, th.roots) * word.element
                assert y not in ys
                ys.add(y)
                assert y.length == w.length - len(th)
                for beta in th.roots:
                    assert all(c >= 0 for c in y.act_inv(beta))
            # with th1 empty, w_Theta <= w: Stratum relies on it and checks nothing
            for th1 in tw:
                for th2 in tw:
                    if set(th1.indices) <= set(th2.indices):
                        assert bruhat_le(kappa(th2), kappa(th1))
            t = len(letters)
            if rs.rank == 2:
                assert all(set(th.indices) <= {1, t} for th in tw)
            rsets = frozenset(frozenset(th.roots) for th in tw)
            if seen is None:
                seen = rsets
            else:
                # the admissible root sets do not depend on the word
                assert rsets == seen, (label, canonical_word(w))


def test_characters_and_lattices():
    strata = {st.theta.roots: st for st in enumerate_strata(WORD_A2)}
    st = strata[((1, 0),)]
    ch = character(st)
    assert ch.f is None
    assert ch.stratum.theta.roots == ((1, 0),)
    assert max_admissible_lattice(ch).basis == ((1, 2),)
    assert max_admissible_lattice(character(strata[()])).basis == ((1, 0), (0, 1))
    concrete = character(st, {(1, 0): from_int(2)})
    assert concrete.f is not None
    with pytest.raises(ValueError):
        character(st, {(0, 1): ONE})
    with pytest.raises(ValueError):
        character(st, {(1, 0): ZERO})


def test_validate_triple():
    st = {st.theta.roots: st for st in enumerate_strata(WORD_A2)}[((1, 0),)]
    ch = character(st)
    good = LatticeSubgroup.from_generators(2, [(1, 2)])
    bad = LatticeSubgroup.from_generators(2, [(1, 0)])
    zero = LatticeSubgroup.from_generators(2, [])
    assert validate_triple(CoidealTriple(ch, good))
    assert not validate_triple(CoidealTriple(ch, bad))
    assert validate_triple(CoidealTriple(ch, zero))
    assert CoidealTriple(ch, good).word is WORD_A2


def test_classify_report():
    rep = classify(WORD_A2, label="A2")
    assert len(rep.rows) == 3
    assert dict(rep.totals) == {"T_w": 3, "W_w": 3}
    # identical table from the other reduced word
    rep2 = classify(ReducedWord(A2, (2, 1, 2)), label="A2")
    assert rep.rows == rep2.rows
    assert rep.bruhat == rep2.bruhat
    doc = json.loads(json.dumps(rep.to_json_obj()))
    assert set(doc) == {"type", "word", "rows", "totals", "bruhat"}
    assert doc["rows"][0]["dim"] == 0
    tsv = rep.to_tsv()
    assert tsv.count("\n") == 7
    assert "y_word\ttheta_roots\tdim\tLmax_basis" in tsv


def test_classify_small_elements():
    rep_e = classify(ReducedWord(A2, ()), label="A2")
    assert len(rep_e.rows) == 1 and rep_e.rows[0].dim == 0
    rep_s1 = classify(ReducedWord(A2, (1,)), label="A2")
    assert len(rep_s1.rows) == 2
    assert sorted(r.dim for r in rep_s1.rows) == [0, 1]


def test_stratum_of():
    th = theta_set(WORD_A2, (3,))
    st = Stratum(th)
    assert st.dim == 1
    assert st.y == kappa(th)
    assert bruhat_le(st.y, W0_A2)


def test_w_theta_once_per_member(monkeypatch):
    calls = []
    real = ThetaSet.extend

    def spy(self, k):
        th = real(self, k)
        calls.append(th.indices)
        assert th.y == product_of_reflections(th.word.rs, th.roots) * th.word.element
        return th

    monkeypatch.setattr(ThetaSet, "extend", spy)
    a3 = build_root_system("A3")
    checks = suite_strata(a3, "A3")
    assert all(c.ok for c in checks)
    # one certified step per nonempty member of T^w, over every reduced word
    # of every element
    assert len(calls) == 301 - 66
    assert len(calls) == sum(
        len(brute_Tw(ReducedWord(a3, letters))) - 1
        for g in weyl_group(a3)
        for letters in all_reduced_words(g)
    )


def test_enumerate_Tw_one_product_per_candidate(monkeypatch):
    """A candidate is a member with one larger index whose root is
    orthogonal to it: the enumeration reflects it once, and it reflects
    nothing again to certify the members it keeps."""
    a3 = build_root_system("A3")
    words = [ReducedWord(a3, letters) for g in weyl_group(a3) for letters in all_reduced_words(g)]
    candidates = 0
    for word in words:
        rs, betas = word.rs, word.roots
        for combo in brute_Tw(word):
            for k in range(combo[-1] + 1 if combo else 1, len(betas) + 1):
                candidates += all(bilinear(rs, betas[i - 1], betas[k - 1]) == 0 for i in combo)
    calls = [0]
    real = WeylElt.__mul__

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(WeylElt, "__mul__", counting)
    for word in words:
        enumerate_Tw(word)
    assert calls[0] == candidates


def test_suite_strata_weyl_products(monkeypatch):
    calls = [0]
    real = WeylElt.__mul__

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(WeylElt, "__mul__", counting)
    checks = suite_strata(build_root_system("A3"), "A3")
    assert all(c.ok for c in checks)
    # a Stratum checks nothing, and a bruhat_le step multiplies u only at a shared descent
    assert calls[0] <= 5939
