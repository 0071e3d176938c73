"""The full kernel: E, F, K normal form and the braid symmetries."""

import random
import time
from itertools import product

import pytest

from qborel.coeffs import ONE, from_int, qpow
from qborel.rootsys import bilinear, build_root_system, reflect, vec_add, vec_neg
from qborel.uqplus.free import FreeElt, serre_relation, word_weight
from qborel.uqplus import full
from qborel.uqplus.full import UAlgebra, UElt, lusztig_T, root_vectors
from qborel.uqplus.linalg import add_scaled, add_term
from qborel.weyl import ReducedWord, all_reduced_words, canonical_word, weyl_group

A2 = build_root_system("A2")
ALG = UAlgebra(A2)


def _serre_image(alg, a, i, j, kind):
    """T_a applied letterwise to a Serre expression."""
    out = alg.zero()
    for w, c in serre_relation(alg.rs, i, j).terms.items():
        t = alg.one().scale(c)
        for letter in w:
            gen = alg.E(letter) if kind == "E" else alg.F(letter)
            t = t * lusztig_T(alg, a, gen)
        out = out + t
    return out


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_defining_relations(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    n = rs.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ai, aj = rs.simple(i), rs.simple(j)
            lhs = alg.E(i) * alg.F(j) - alg.F(j) * alg.E(i)
            if i == j:
                d = (alg.qi(i) - alg.qi(i).inverse()).inverse()
                rhs = (alg.K(ai) - alg.K(vec_neg(ai))).scale(d)
            else:
                rhs = alg.zero()
            assert lhs == rhs, (i, j)
            assert alg.K(ai) * alg.E(j) == (alg.E(j) * alg.K(ai)).scale(
                qpow(bilinear(rs, ai, aj))
            )
            assert alg.K(ai) * alg.F(j) == (alg.F(j) * alg.K(ai)).scale(
                qpow(-bilinear(rs, ai, aj))
            )
            assert alg.K(ai) * alg.K(vec_neg(ai)) == alg.one()
            if i != j:
                assert alg.from_free(serre_relation(rs, i, j)).is_zero()
                sf = alg.zero()
                for w, c in serre_relation(rs, i, j).terms.items():
                    t = alg.one().scale(c)
                    for letter in w:
                        t = t * alg.F(letter)
                    sf = sf + t
                assert sf.is_zero(), (i, j)


def test_normal_form_fixed_point_and_associativity():
    x = ALG.E(1) * ALG.F(2) * ALG.K((1, -1)) * ALG.E(2) + ALG.F(1) * ALG.E(1)
    # multiplying the normal-form terms back out gives x again
    rebuilt = ALG.zero()
    for (f, k, e), c in x.terms.items():
        term = ALG.one().scale(c)
        for j in f:
            term = term * ALG.F(j)
        term = term * ALG.K(k)
        for i in e:
            term = term * ALG.E(i)
        rebuilt = rebuilt + term
    assert rebuilt == x
    a, b, c = ALG.E(1), ALG.F(1), ALG.E(2) * ALG.K((0, 1))
    assert (a * b) * c == a * (b * c)
    p1 = ((ALG.E(1) * ALG.E(2)) * ALG.F(1)) * (ALG.K((1, 0)) * ALG.E(1))
    p2 = ALG.E(1) * ((ALG.E(2) * ALG.F(1)) * (ALG.K((1, 0)) * ALG.E(1)))
    assert p1 == p2


def _letter_chain(alg, key, right):
    """key * F_f2 K_mu E_e2 the long way: one F letter at a time, then
    K_mu, then one E letter at a time through nf.reduce_word."""
    f2, mu, e2 = right
    cur = {key: ONE}
    for j in f2:
        nxt = {}
        for k, c in cur.items():
            add_scaled(nxt, alg._key_times_f(k, j), c)
        cur = nxt
    nxt = {}
    for (f, k, e), c in cur.items():
        nxt[(f, vec_add(k, mu), e)] = c * qpow(-bilinear(alg.rs, mu, alg._wt(e)))
    cur = nxt
    for i in e2:
        nxt = {}
        for (f, k, e), c in cur.items():
            add_scaled(nxt, {(f, k, w): c2 for w, c2 in alg.nf.reduce_word(e + (i,)).items()}, c)
        cur = nxt
    return cur


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_f_free_right_key_product_matches_the_letter_chain(monkeypatch, label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    words = [
        w
        for mu in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        for w in alg.nf.complement_basis(mu)
    ]
    kexps = [(0, 0), (1, -1), (-2, 1)]
    lefts = [(f, k, e) for f in words[:3] + [words[-1]] for k in kexps for e in words]
    rights = [((), mu, e2) for mu in kexps for e2 in words]
    want = {(k1, k2): _letter_chain(alg, k1, k2) for k1 in lefts for k2 in rights}
    # right keys with an F-word take the same closed form after their F letters
    with_f = [((1,), (0, 0), ()), ((2,), (1, -1), (1,)), ((2, 1), (-2, 1), (1, 2))]
    f_want = {(k1, k2): _letter_chain(alg, k1, k2) for k1 in lefts[::7] for k2 in with_f}
    for (k1, k2), terms in f_want.items():
        assert alg._term_times_term(k1, k2) == terms, (k1, k2)

    def no_walk(*args):
        raise AssertionError("the F-free path walks the E-letters")

    monkeypatch.setattr(alg.nf, "reduce_word", no_walk)
    for (k1, k2), terms in want.items():
        assert alg._term_times_term(k1, k2) == terms, (k1, k2)
    assert any(k1[0] for k1, _ in want) and any(len(k2[2]) > 1 for _, k2 in want)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_lusztig_T_kills_relations(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    n = rs.rank
    for a in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                lhs = alg.E(i) * alg.F(j) - alg.F(j) * alg.E(i)
                if i == j:
                    d = (alg.qi(i) - alg.qi(i).inverse()).inverse()
                    ai = rs.simple(i)
                    rhs = (alg.K(ai) - alg.K(vec_neg(ai))).scale(d)
                else:
                    rhs = alg.zero()
                assert lusztig_T(alg, a, lhs - rhs).is_zero()
                tl = lusztig_T(alg, a, alg.E(i)) * lusztig_T(alg, a, alg.F(j)) - lusztig_T(
                    alg, a, alg.F(j)
                ) * lusztig_T(alg, a, alg.E(i))
                assert tl == lusztig_T(alg, a, rhs), (label, a, i, j)
                if i != j:
                    assert _serre_image(alg, a, i, j, "E").is_zero()
                    assert _serre_image(alg, a, i, j, "F").is_zero()
        for i in range(1, n + 1):
            mu = rs.simple(i)
            assert lusztig_T(alg, a, alg.K(mu)) == alg.K(reflect(rs, rs.simple(a), mu))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_lusztig_T_invertible_on_generators(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    n = rs.rank
    gens = (
        [alg.E(i) for i in range(1, n + 1)]
        + [alg.F(i) for i in range(1, n + 1)]
        + [alg.K(rs.simple(i)) for i in range(1, n + 1)]
        + [alg.K(vec_neg(rs.simple(i))) for i in range(1, n + 1)]
    )
    for a in range(1, n + 1):
        for g in gens:
            assert lusztig_T(alg, a, lusztig_T(alg, a, g, inverse=True)) == g
            assert lusztig_T(alg, a, lusztig_T(alg, a, g), inverse=True) == g


def test_t1_of_e2():
    t12 = lusztig_T(ALG, 1, ALG.E(2))
    assert t12.in_plus()
    fe = t12.as_free()
    assert fe.homogeneous_weight(2) == (1, 1)
    expected = ALG.from_free(FreeElt({(1, 2): ONE, (2, 1): -qpow(-1)}))
    assert t12 == expected


def test_root_vectors_a2():
    word = ReducedWord(A2, (1, 2, 1))
    rv = root_vectors(ALG, word)
    assert [x.as_free().homogeneous_weight(2) for x in rv] == [(1, 0), (1, 1), (0, 1)]
    assert rv[0] == ALG.E(1)


def test_root_vectors_are_kept_by_suffix(monkeypatch):
    calls = []

    def counting_T(alg, a, x, inverse=False):
        calls.append(a)
        return lusztig_T(alg, a, x, inverse)

    monkeypatch.setattr(full, "lusztig_T", counting_T)
    rs = build_root_system("B3")
    alg = UAlgebra(rs)
    word = ReducedWord(rs, (1, 2, 1, 3, 2, 1, 3, 2, 3))
    rv = root_vectors(alg, word)
    # one T per (suffix, position) pair, 8 + 7 + ... + 1
    assert len(calls) == 36
    assert set(alg._root_vectors) == {word.letters[k:] for k in range(9)}
    # the suffix's vectors are the word's, each with T_{i_1} taken off
    assert root_vectors(alg, ReducedWord(rs, word.letters[1:])) == [
        lusztig_T(alg, 1, x, inverse=True) for x in rv[1:]
    ]
    assert len(calls) == 36
    # a new first letter costs one T per vector of the suffix it shares
    root_vectors(alg, ReducedWord(rs, (1,) + word.letters[4:]))
    assert len(calls) == 36 + 5


def _termwise_T(rs, a, x, inverse):
    """T_a of x on a fresh algebra, each term multiplied out letter by letter."""
    alg = UAlgebra(rs, x.alg.nf.height_bound)
    out = alg.zero()
    for (f, k, e), c in x.terms.items():
        img = alg.one().scale(c)
        for j in f:
            img = img * full._t_generator(alg, a, "F", j, inverse)
        if any(k):
            img = img * alg.K(reflect(rs, rs.simple(a), k))
        for i in e:
            img = img * full._t_generator(alg, a, "E", i, inverse)
        out = out + img
    return out


def _random_elt(alg, rng):
    """A sum of up to three terms F_f K_k E_e with words of length at most 2."""
    n = alg.rs.rank
    x = alg.zero()
    for _ in range(rng.randint(1, 3)):
        term = alg.K(tuple(rng.randint(-2, 2) for _ in range(n)))
        for _ in range(rng.randint(0, 2)):
            term = alg.F(rng.randint(1, n)) * term
        for _ in range(rng.randint(0, 2)):
            term = term * alg.E(rng.randint(1, n))
        x = x + term.scale(from_int(rng.randint(1, 3)) + qpow(rng.randint(-2, 2)))
    return x


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_lusztig_T_matches_termwise_products(label):
    # the cached prefix images against each term multiplied out on its own
    # algebra, which shares no image with the one under test
    rs = build_root_system(label)
    # images of two-letter words next to T_a(F_a) = -K_a^-1 E_a pass A2's default bound 4
    alg = UAlgebra(rs, 12)
    rng = random.Random(15)
    mixed = 0
    for _ in range(12):
        x = _random_elt(alg, rng)
        mixed += any(f and e for f, _, e in x.terms)
        for a in range(1, rs.rank + 1):
            for inverse in (False, True):
                got = lusztig_T(alg, a, x, inverse)
                want = UElt(alg, _termwise_T(rs, a, x, inverse).terms)
                assert got == want, (label, a, inverse, repr(x))
                assert repr(got) == repr(want)
    assert mixed


def test_t_images_are_kept_per_algebra():
    rs = build_root_system("B2")
    one, two = UAlgebra(rs), UAlgebra(rs)
    x = one.F(2) * one.K((1, 0)) * one.E(1) * one.E(2)
    (key,) = x.terms
    t1 = lusztig_T(one, 1, x)
    assert two._t_images == {}
    f, k, e = key
    for prefix in [(f, (0, 0), ()), (f, k, ()), (f, k, e[:1]), key]:
        assert (1, False, prefix) in one._t_images
    t2 = lusztig_T(two, 1, two.F(2) * two.K((1, 0)) * two.E(1) * two.E(2))
    assert t2.alg is two and repr(t2) == repr(t1)
    assert one._t_images.keys() == two._t_images.keys()
    assert all(img.alg is two for img in two._t_images.values())


def test_root_vectors_reuse_term_prefixes(monkeypatch):
    # each T-image of a term is its prefix's image times one generator
    # image, so the 36 T calls of a B3 word share their products; a last
    # letter a takes the F-free step in place of a product by T_a(E_a)
    calls = {"product": 0, "step": 0}
    mul, step = UElt.__mul__, full._f_free_times_t_ea

    def counting_mul(self, other):
        calls["product"] += 1
        return mul(self, other)

    def counting_step(alg, y, a, inverse):
        calls["step"] += 1
        return step(alg, y, a, inverse)

    monkeypatch.setattr(UElt, "__mul__", counting_mul)
    monkeypatch.setattr(full, "_f_free_times_t_ea", counting_step)
    rs = build_root_system("B3")
    root_vectors(UAlgebra(rs), ReducedWord(rs, (1, 2, 1, 3, 2, 1, 3, 2, 3)))
    assert calls == {"product": 114, "step": 38}


def _complement_words(alg, h):
    """Every complement word of height 1 to h."""
    mus = (mu for mu in product(range(h + 1), repeat=alg.rs.rank) if 0 < sum(mu) <= h)
    return [e for mu in mus for e in alg.nf.complement_basis(mu)]


# G2 stops at height 4: the images of its height-5 words reach weights of
# height 20, whose Serre echelon alone takes over a minute
@pytest.mark.parametrize("label, h", [("A2", 5), ("B2", 5), ("G2", 4), ("A3", 5), ("B3", 5)])
def test_f_free_step_matches_the_filtered_product(label, h):
    t0 = time.perf_counter()
    rs = build_root_system(label)
    alg = UAlgebra(rs, 20)
    checked = 0
    for e in _complement_words(alg, h):
        for a in range(1, rs.rank + 1):
            for inverse in (False, True):
                gen = full._t_generator(alg, a, "E", a, inverse)
                y = full._t_plus_image(alg, a, e, inverse)
                # the kept images have K = 0 throughout, so K_alpha_a y
                # covers the K exponent of the step
                for x in (y, alg.K(rs.simple(a)) * y):
                    got = full._f_free_times_t_ea(alg, x, a, inverse)
                    want = [(key, c) for key, c in (x * gen).terms.items() if not key[0]]
                    assert list(got.terms.items()) == want, (e, a, inverse, repr(x))
                    checked += bool(want)
    assert checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"


def _derivation_sum(alg, e, j):
    """[E_e, F_j] by the derivation rule, summed over the positions p with e_p = j:
    (q^-(alpha_j, wt e_<p) K_j - q^(alpha_j, wt e_<p) K_j^-1) nf(E_(e_<p e_>p))
    / (q_j - q_j^-1), keyed by (K-exponent, E-word)."""
    rs = alg.rs
    aj = rs.simple(j)
    denom = (qpow(rs.d[j - 1]) - qpow(-rs.d[j - 1])).inverse()
    out = {}
    for p, letter in enumerate(e):
        if letter != j:
            continue
        s = bilinear(rs, aj, word_weight(e[:p], rs.rank))
        rest = alg.nf.reduce(FreeElt({e[:p] + e[p + 1:]: ONE}))
        for k, c in ((aj, qpow(-s)), (vec_neg(aj), -qpow(s))):
            for w, cw in rest.terms.items():
                add_term(out, (k, w), c * cw * denom)
    return out


@pytest.mark.parametrize("label, h", [("A2", 4), ("B2", 4), ("G2", 4), ("A3", 3)])
def test_commutator_table_matches_the_derivation_rule(label, h):
    rs = build_root_system(label)
    alg = UAlgebra(rs, 20)
    for e in [()] + _complement_words(alg, h):
        for j in range(1, rs.rank + 1):
            assert alg._commutator_f(e, j) == _derivation_sum(alg, e, j), (e, j)
    # products with F-words and both Lusztig paths fill the same tables
    x = alg.from_free(FreeElt({w: ONE for w in _complement_words(alg, 2)}))
    y = alg.F(1) * alg.F(rs.rank) * alg.K(rs.simple(1))
    lusztig_T(alg, 1, x * y + x)
    lusztig_T(alg, rs.rank, x, inverse=True)
    assert any(alg._ef.values())
    for (e, j), table in alg._ef.items():
        # each key is (K-exponent, E-word): no F-word
        assert all(len(k) == rs.rank and isinstance(w, tuple) for k, w in table), (e, j)
        assert table == _derivation_sum(alg, e, j), (e, j)


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_root_vectors_homogeneous(label):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    word = ReducedWord(rs, canonical_word(w0))
    for x, beta in zip(root_vectors(alg, word), word.roots):
        assert not x.is_zero()
        assert x.in_plus()
        assert x.as_free().homogeneous_weight(rs.rank) == beta


def test_membership_predicates():
    assert ALG.E(1).in_plus()
    assert not ALG.K((1, 0)).in_plus()
    assert ALG.K((1, 0)).in_nonneg()
    assert not ALG.F(1).in_nonneg()
    with pytest.raises(ValueError):
        ALG.F(1).as_free()


def _full_path_T(alg, a, x, inverse):
    """T_a of x as the sum of the full term images, F-parts included."""
    out = alg.zero()
    for key, c in x.terms.items():
        out = out + full._t_image(alg, a, key, inverse).scale(c)
    return out


def _plus_inputs(label):
    """Root vectors of up to four reduced words of w0 and seeded sums of words up to height 3."""
    rs = build_root_system(label)
    # images of three-letter words pass A2's default bound 4
    alg = UAlgebra(rs, 3 * rs.highest_height)
    w0 = max(weyl_group(rs), key=lambda g: g.length)
    inputs = []
    for letters in all_reduced_words(w0)[:4]:
        inputs.extend(root_vectors(alg, ReducedWord(rs, letters)))
    rng = random.Random(21)
    while len(inputs) < 50 + 10 * rs.rank:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(1, rs.rank) for _ in range(rng.randint(1, 3)))
            terms[w] = from_int(rng.randint(1, 3)) + qpow(rng.randint(-2, 2))
        x = alg.from_free(FreeElt(terms))
        if not x.is_zero():
            inputs.append(x)
    return rs, alg, inputs


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_positive_image_test_matches_the_full_image(label):
    rs, alg, inputs = _plus_inputs(label)
    verdicts = set()
    for x in inputs:
        for a in range(1, rs.rank + 1):
            for inverse in (False, True):
                stays = full._image_stays_in_plus(alg, a, x, inverse)
                assert stays == _full_path_T(alg, a, x, inverse).in_plus(), (a, inverse, repr(x))
                verdicts.add(stays)
    assert verdicts == {False, True}


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_positive_path_matches_termwise_products(label):
    rs, alg, inputs = _plus_inputs(label)
    taken = 0
    for x in inputs:
        for a in range(1, rs.rank + 1):
            for inverse in (False, True):
                if full._image_stays_in_plus(alg, a, x, inverse):
                    got = lusztig_T(alg, a, x, inverse)
                    want = UElt(alg, _termwise_T(rs, a, x, inverse).terms)
                    assert got == want, (a, inverse, repr(x))
                    assert repr(got) == repr(want)
                    taken += 1
    assert taken


def test_t1_inverse_takes_t1_e2_back_on_the_positive_path():
    alg = UAlgebra(A2)
    zero = (0, 0)
    # t = T_1(E_2) = E_1 E_2 - q^-1 E_2 E_1, built without a T call
    t = alg.from_free(FreeElt({(1, 2): ONE, (2, 1): -qpow(-1)}))
    assert full._image_stays_in_plus(alg, 1, t, True)
    assert not full._image_stays_in_plus(alg, 1, t, False)
    assert lusztig_T(alg, 1, t, inverse=True) == alg.E(2)
    assert {(1, True, (1, 2)), (1, True, (2, 1))} <= set(alg._t_plus_images)
    # the full path kept nothing but generator images
    assert all(len(e) <= 1 for _, _, (_, _, e) in alg._t_images)
    img = lusztig_T(alg, 1, t)
    assert any(f for f, _, _ in img.terms) and not img.in_plus()
    assert (1, False, ((), zero, (1, 2))) in alg._t_images
    assert not any(key[:2] == (1, False) for key in alg._t_plus_images)
    assert img == UElt(alg, _termwise_T(A2, 1, t, False).terms)


def test_t_plus_images_are_kept_per_algebra():
    rs = build_root_system("B2")
    one, two = UAlgebra(rs), UAlgebra(rs)
    assert one._t_plus_images == {}
    word = ReducedWord(rs, (1, 2, 1, 2))
    rv1 = root_vectors(one, word)
    assert one._t_plus_images and two._t_plus_images == {}
    rv2 = root_vectors(two, word)
    assert [repr(x) for x in rv2] == [repr(x) for x in rv1]
    assert one._t_plus_images.keys() == two._t_plus_images.keys()
    assert all(img.alg is two for img in two._t_plus_images.values())
    assert all(not f for img in one._t_plus_images.values() for f, _, _ in img.terms)
