"""Weyl group elements, reduced words, Bruhat order, chain surgery."""

import random
from itertools import permutations
from operator import mul

import pytest

from qborel.errors import BadIndex, InvalidChain, NoNonorthogonalPair, NotReduced
from qborel.cli import suite_weyl
from qborel.rootsys import bilinear, build_root_system, reflect
from qborel.weyl import (
    ReducedWord,
    WeylElt,
    all_reduced_words,
    bruhat_le,
    canonical_word,
    from_word,
    identity,
    inversion_set,
    lemma12_step,
    normalize_reflection_sequence,
    reflection_of_root,
    simple_reflection,
    validate_chain,
    weyl_bruhat_equiv,
    weyl_group,
)

A2 = build_root_system("A2")
B2 = build_root_system("B2")
G2 = build_root_system("G2")
A3 = build_root_system("A3")
B3 = build_root_system("B3")

DIFF_TYPES = ("A1", "A2", "A3", "B3", "C3", "G2", "D4", "F4")


def test_simple_reflections():
    s1 = simple_reflection(A2, 1)
    assert s1.length == 1
    assert (s1 * s1).is_identity
    assert s1.act((1, 0)) == (-1, 0)
    assert s1.act((0, 1)) == (1, 1)
    assert s1.act_inv((1, 1)) == (0, 1)


@pytest.mark.parametrize("rs", [A2, B3], ids=["A2", "B3"])
def test_letters_out_of_range_raise_bad_index(rs):
    for i in (0, -1, rs.rank + 1):
        with pytest.raises(BadIndex):
            simple_reflection(rs, i)
        with pytest.raises(BadIndex):
            from_word(rs, (1, i))


def test_group_orders():
    assert len(weyl_group(A2)) == 6
    assert len(weyl_group(B2)) == 8
    assert len(weyl_group(G2)) == 12
    assert len(weyl_group(A3)) == 24
    assert len(weyl_group(B3)) == 48


def test_longest_elements():
    for rs, length, word in ((A2, 3, (1, 2, 1)), (B2, 4, (1, 2, 1, 2)), (G2, 6, (1, 2, 1, 2, 1, 2))):
        w0 = max(weyl_group(rs), key=lambda g: g.length)
        assert w0.length == length
        assert canonical_word(w0) == word
        assert len(all_reduced_words(w0)) == 2
    w0 = max(weyl_group(A3), key=lambda g: g.length)
    assert w0.length == 6
    assert canonical_word(w0) == (1, 2, 1, 3, 2, 1)
    assert len(all_reduced_words(w0)) == 16


def test_length_additivity_and_inverse():
    w = from_word(B2, (1, 2, 1))
    assert w.length == 3
    assert w.inverse().length == 3
    assert (w * w.inverse()).is_identity
    assert canonical_word(identity(B2)) == ()


def test_reduced_word_validation():
    with pytest.raises(NotReduced):
        ReducedWord(A2, (1, 1))
    with pytest.raises(NotReduced):
        ReducedWord(A2, (1, 2, 1, 2))
    with pytest.raises(NotReduced):
        ReducedWord(A2, (3,))
    word = ReducedWord(A2, (1, 2, 1))
    assert word.element == from_word(A2, (2, 1, 2))
    assert word.roots == ((1, 0), (1, 1), (0, 1))


def test_roots_of_word():
    assert ReducedWord(A2, (1, 2, 1)).roots == ((1, 0), (1, 1), (0, 1))
    assert ReducedWord(B2, (1, 2, 1, 2)).roots == ((1, 0), (2, 1), (1, 1), (0, 1))
    # the collected roots are exactly the inversion set
    for rs in (A2, B2, G2):
        for g in weyl_group(rs):
            letters = canonical_word(g)
            assert set(ReducedWord(rs, letters).roots) == set(inversion_set(g))


def test_inversion_set():
    w0 = from_word(A2, (1, 2, 1))
    assert inversion_set(w0) == A2.pos_roots
    assert inversion_set(identity(A2)) == ()


def test_reflection_of_root():
    assert reflection_of_root(A2, (1, 1)) == from_word(A2, (1, 2, 1))
    assert reflection_of_root(B2, (2, 1)) == from_word(B2, (1, 2, 1))
    for rs in (A2, B2, G2):
        for beta in rs.pos_roots:
            t = reflection_of_root(rs, beta)
            assert t.act(beta) == tuple(-c for c in beta)
            assert (t * t).is_identity


def test_left_descents():
    w0 = from_word(A2, (1, 2, 1))
    assert w0.left_descents() == [1, 2]
    assert from_word(A2, (1, 2)).left_descents() == [1]
    assert identity(A2).left_descents() == []


def test_bruhat_order():
    e = identity(A2)
    s1 = from_word(A2, (1,))
    s12 = from_word(A2, (1, 2))
    s21 = from_word(A2, (2, 1))
    w0 = from_word(A2, (1, 2, 1))
    assert bruhat_le(e, s1) and bruhat_le(s1, s12) and bruhat_le(s12, w0)
    assert bruhat_le(s1, s21)
    assert not bruhat_le(s12, s21) and not bruhat_le(s21, s12)
    assert not bruhat_le(w0, s12)
    # reflexive and antisymmetric on the whole group
    for u in weyl_group(A2):
        assert bruhat_le(u, u)
        for v in weyl_group(A2):
            if bruhat_le(u, v) and bruhat_le(v, u):
                assert u == v


def _subword_products(v):
    """The products of the subwords of canonical_word(v).

    The subword property: u <= v exactly when u is such a product.  The
    set is grown letter by letter, each letter taken or skipped.
    """
    rs = v.rs
    found = {identity(rs)}
    for i in canonical_word(v):
        s = simple_reflection(rs, i)
        found |= {x * s for x in found}
    return found


@pytest.mark.parametrize("rs", [B2, G2, A3, B3], ids=["B2", "G2", "A3", "B3"])
def test_bruhat_le_matches_the_subword_property(rs):
    group = weyl_group(rs)
    n_below = 0
    for v in group:
        below = _subword_products(v)
        n_below += len(below)
        for u in group:
            assert bruhat_le(u, v) == (u in below), (canonical_word(u), canonical_word(v))
    assert len(group) < n_below < len(group) ** 2


def test_bruhat_equiv_exhaustive_rank2():
    for rs in (A2, B2, G2):
        for u in weyl_group(rs):
            for beta in rs.pos_roots:
                c1, c2, c3 = weyl_bruhat_equiv(u, beta)
                assert c1 == c2 == c3, (u, beta)


def test_bruhat_equiv_rejects_nonroots():
    with pytest.raises(ValueError):
        weyl_bruhat_equiv(identity(A2), (2, 2))


def _random_chain(rs, rng, group, m, tries=200):
    candidates = [g for g in group if g.length >= m]
    for _ in range(tries):
        w = rng.choice(candidates)
        seq = []
        x = w
        for _ in range(m):
            opts = [
                b
                for b in rs.pos_roots
                if (reflection_of_root(rs, b) * x).length == x.length - 1
            ]
            if not opts:
                break
            b = rng.choice(opts)
            seq.append(b)
            x = reflection_of_root(rs, b) * x
        if len(seq) == m:
            return w, seq
    pytest.fail(f"no length-reducing chain of {m} reflections in {tries} tries")


def test_validate_chain():
    w0 = from_word(A2, (1, 2, 1))
    validate_chain(w0, ((1, 0), (0, 1)))
    with pytest.raises(InvalidChain):
        validate_chain(w0, ((1, 0), (1, 0)))
    with pytest.raises(InvalidChain):
        validate_chain(identity(A2), ((1, 0),))
    with pytest.raises(InvalidChain):
        validate_chain(w0, ((2, 2),))


def test_lemma12_step_postconditions():
    # search deterministically for valid inputs, then check the contract
    rng = random.Random(7)
    group = weyl_group(A3)
    found = 0
    # 56 draws give the 10 inputs; the cap turns a wrong product into a
    # failure instead of a search without end
    for _ in range(2000):
        if found == 10:
            break
        w, seq = _random_chain(A3, rng, group, 3)
        gamma, beta, alpha = seq[0], seq[1], seq[2]
        if bilinear(A3, beta, gamma) != 0:
            continue
        if bilinear(A3, alpha, beta) == 0 and bilinear(A3, alpha, gamma) == 0:
            continue
        a2, b2, g2 = lemma12_step(w, alpha, beta, gamma)
        assert bilinear(A3, b2, g2) != 0
        validate_chain(w, (g2, b2, a2))
        lhs = (
            reflection_of_root(A3, alpha)
            * reflection_of_root(A3, beta)
            * reflection_of_root(A3, gamma)
        )
        rhs = (
            reflection_of_root(A3, a2)
            * reflection_of_root(A3, b2)
            * reflection_of_root(A3, g2)
        )
        assert lhs == rhs
        found += 1
    assert found == 10, f"only {found} of 10 valid inputs in 2000 draws"


@pytest.mark.parametrize("rs", [A3, B3], ids=["A3", "B3"])
def test_normalize_reflection_sequence(rs):
    rng = random.Random(11)
    group = weyl_group(rs)
    done = 0
    for _ in range(2000):
        if done == 25:
            break
        m = rng.randint(2, 4)
        w, seq = _random_chain(rs, rng, group, m)
        if all(
            bilinear(rs, seq[i], seq[j]) == 0
            for i in range(m)
            for j in range(i + 1, m)
        ):
            continue
        out = normalize_reflection_sequence(w, seq)
        assert len(out) == m
        assert bilinear(rs, out[0], out[1]) != 0
        validate_chain(w, out)
        p_in, p_out = w, w
        for b in seq:
            p_in = reflection_of_root(rs, b) * p_in
        for b in out:
            p_out = reflection_of_root(rs, b) * p_out
        assert p_in == p_out
        done += 1
    assert done == 25, f"only {done} of 25 valid inputs in 2000 draws"


def test_normalize_needs_a_nonorthogonal_pair():
    # alpha1 and alpha3 commute in A3
    w0 = max(weyl_group(A3), key=lambda g: g.length)
    chain = ((1, 0, 0), (0, 0, 1))
    validate_chain(w0, chain)
    with pytest.raises(NoNonorthogonalPair):
        normalize_reflection_sequence(w0, chain)


def test_weyl_group_is_owned_by_its_root_system():
    rs = build_root_system("B2")
    group = weyl_group(rs)
    assert weyl_group(rs) is group
    other = build_root_system("B2")
    assert other is not rs and other == rs
    assert weyl_group(other) is not group
    assert list(weyl_group(other)) == list(group)


def test_reduced_word_stores_its_element_and_roots():
    word = ReducedWord(B3, (1, 2, 3, 2))
    assert word.element is word.element
    assert word.roots is word.roots
    assert word.element == from_word(B3, word.letters)
    # the stored fields take no part in equality or hashing
    assert word == ReducedWord(B3, (1, 2, 3, 2))
    assert len({word, ReducedWord(B3, (1, 2, 3, 2))}) == 1
    with pytest.raises(NotReduced):
        ReducedWord(A2, (1, 3))


def _check_against_direct_definitions(w):
    assert w.length == _act_inv_length(w)
    assert w.length == len(inversion_set(w)) == len(canonical_word(w))
    assert w.left_descents() == _act_inv_descents(w)
    assert w.is_identity == _matrix_is_identity(w)


def _act_inv_length(w):
    return sum(1 for beta in w.rs.pos_roots if all(x <= 0 for x in w.act_inv(beta)))


def _act_inv_descents(w):
    n = w.rs.rank
    return [i for i in range(1, n + 1) if all(x <= 0 for x in w.act_inv(w.rs.simple(i)))]


def _matrix(w):
    """The matrix of w on simple root coordinates, read off act: column j
    holds w(alpha_j)."""
    return tuple(zip(*(w.act(w.rs.simple(j)) for j in range(1, w.rs.rank + 1))))


def _inv_matrix(w):
    """The matrix of w^{-1}, read off act_inv."""
    return tuple(zip(*(w.act_inv(w.rs.simple(j)) for j in range(1, w.rs.rank + 1))))


def _matrix_is_identity(w):
    n = w.rs.rank
    return _matrix(w) == tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _cartan_reflection(rs, beta):
    bb = bilinear(rs, beta, beta)
    n = rs.rank
    cols = []
    for j in range(n):
        coef = 2 * bilinear(rs, beta, rs.simple(j + 1)) // bb
        cols.append(tuple(int(r == j) - coef * beta[r] for r in range(n)))
    return tuple(zip(*cols))


@pytest.mark.parametrize("label", DIFF_TYPES)
def test_fast_weyl_paths_match_the_direct_definitions(label):
    rs = build_root_system(label)
    # s_i s_j has left descent i and right descent j: checked before weyl_group
    # and without repr(w), as both find a canonical word through left_descents
    for letters in permutations(range(1, rs.rank + 1), 2):
        w = from_word(rs, letters)
        fast, direct = w.left_descents(), _act_inv_descents(w)
        assert fast == direct, letters
    group = weyl_group(rs)
    for w in group:
        _check_against_direct_definitions(w)
    for beta in rs.pos_roots:
        for root in (beta, tuple(-c for c in beta)):
            assert _matrix(reflection_of_root(rs, root)) == _cartan_reflection(rs, beta)
    # products by the reflections the table keeps land on elements it
    # already holds: each must carry its own data
    rng = random.Random(label)
    sample = rng.sample(group, min(len(group), 12))
    for beta in rs.pos_roots:
        r = _cartan_reflection(rs, beta)
        for root in (beta, tuple(-c for c in beta)):
            t = reflection_of_root(rs, root)
            assert t is reflection_of_root(rs, root)
            _check_against_direct_definitions(t)
            for x in sample:
                y = t * x
                assert _matrix(y) == _matmul(r, _matrix(x))
                _check_against_direct_definitions(y)
                assert from_word(rs, canonical_word(y)) == y
    zero = (0,) * rs.rank
    for v in (zero, (2,) + zero[1:], (1, -1) + zero[2:], zero + (1,)):
        with pytest.raises(ValueError):
            reflection_of_root(rs, v)


def _orbit_entries(rs):
    return {k: v for k, v in rs._weyl_table.items() if k[0] != "s"}


def _kept_products(rs):
    return sum(len(w._products or ()) for w in _orbit_entries(rs).values())


def test_weyl_table_is_owned_by_its_root_system():
    rs = build_root_system("B3")
    # filled on first use, not by build_root_system
    assert rs._weyl_table == {}
    group = weyl_group(rs)
    entries = _orbit_entries(rs)
    assert len(entries) == len(rs._weyl_table) == 48
    # one entry per element: the element itself, carrying its own data
    for w in group:
        assert entries[w.vec] is w
        assert w._pairings == tuple(bilinear(rs, rs.simple(i), w.vec) for i in range(1, 4))
        assert w.length == len(canonical_word(w)) and w._canonical is canonical_word(w)
    # asking again, or through a fresh WeylElt, adds nothing
    assert weyl_group(rs) is group
    for w in group:
        assert WeylElt(rs, w.vec) is w
    assert len(rs._weyl_table) == 48
    # a word adds only the simple reflections it is read with
    for w in group:
        assert from_word(rs, canonical_word(w)) is w
    assert len(_orbit_entries(rs)) == 48
    assert set(rs._weyl_table) - set(entries) == {("s", rs.simple(i)) for i in range(1, 4)}
    # a reflection is kept once per root, under a key of its own
    beta = rs.pos_roots[-1]
    t = reflection_of_root(rs, beta)
    assert reflection_of_root(rs, beta) is t and t.root == beta
    assert rs._weyl_table[("s", beta)] is t
    assert {t * w for w in group} == set(group)
    assert len(_orbit_entries(rs)) == 48 and len(rs._weyl_table) == 52
    # a second equal root system shares nothing: equal elements, new objects
    other = build_root_system("B3")
    assert other == rs and other._weyl_table == {}
    assert list(weyl_group(other)) == list(group)
    assert other._weyl_table is not rs._weyl_table
    assert all(x == w and x is not w for x, w in zip(weyl_group(other), group))
    assert all(WeylElt(other, w.vec) is x for x, w in zip(weyl_group(other), group))
    assert len(_orbit_entries(other)) == 48 and _kept_products(other) == 0
    # a product across the two lands in the left factor's table, kept there
    for x, w in zip(weyl_group(other), group):
        assert t * x is t * w
    assert _kept_products(other) == 0
    assert len(rs._weyl_table) == 52


@pytest.mark.parametrize("label", DIFF_TYPES)
def test_products_by_a_reflection_are_fresh_reflections(label):
    rs = build_root_system(label)
    group = weyl_group(rs)
    for beta in rs.pos_roots:
        for root in (beta, tuple(-c for c in beta)):
            t = reflection_of_root(rs, root)
            for w in group:
                y = t * w
                assert y.vec == reflect(rs, t.root, w.vec) == reflect(rs, root, w.vec)
                assert y is WeylElt(rs, y.vec) and t * w is y
    assert len(_orbit_entries(rs)) == len(group)
    assert _kept_products(rs) <= 2 * len(rs.pos_roots) * len(group)


@pytest.mark.parametrize("label", ("A1", "G2", "B3", "D4", "F4"))
def test_weyl_group_keeps_no_products(label):
    rs = build_root_system(label)
    group = weyl_group(rs)
    # the enumeration reflects orbit vectors: no product, no reflection built
    assert all(w._products is None for w in group)
    assert len(rs._weyl_table) == len(group)


def test_products_kept_by_suite_weyl_are_bounded():
    rs = build_root_system("F4")
    assert all(c.ok for c in suite_weyl(rs, "F4"))
    group = weyl_group(rs)
    assert len(_orbit_entries(rs)) == len(group) == 1152
    assert 0 < _kept_products(rs) <= 2 * len(rs.pos_roots) * len(group)


def test_constructor_refuses_vectors_outside_the_orbit():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match="not in the W-orbit"):
        WeylElt(rs, (1, 0))
    assert rs._weyl_table == {}
    # every vector of a box: accepted exactly when it is an orbit vector,
    # and nothing is stored for a refused one
    for label in ("A2", "B2", "G2", "A3", "C3"):
        rs = build_root_system(label)
        orbit = {w.vec: w for w in weyl_group(rs)}
        size = len(rs._weyl_table)
        rng = random.Random(label)
        vecs = list(orbit) + [tuple(rng.randint(-12, 12) for _ in range(rs.rank)) for _ in range(300)]
        for v in vecs:
            if v in orbit:
                assert WeylElt(rs, v) is orbit[v]
            else:
                with pytest.raises(ValueError):
                    WeylElt(rs, v)
        assert len(rs._weyl_table) == size
    # a fresh table: the walk to the dominant chamber, not a lookup, decides
    rs = build_root_system("B3")
    w0 = WeylElt(rs, tuple(-x for x in rs.two_rho))
    assert w0.length == len(rs.pos_roots)
    for v in ((1, 0, 0), rs.two_rho[:2], rs.two_rho + (0,), tuple(2 * x for x in rs.two_rho)):
        with pytest.raises(ValueError):
            WeylElt(rs, v)
    assert set(rs._weyl_table) == {w0.vec}


def test_weyl_elt_fields_are_read_only():
    rs = build_root_system("B2")
    w = from_word(rs, (1, 2))
    t = simple_reflection(rs, 1)
    # fill the slots that are filled on first use
    t * w
    canonical_word(w)
    inversion_set(w)
    for field in WeylElt.__slots__ + ("is_identity", "_word"):
        for x in (w, t):
            before = getattr(x, field)
            with pytest.raises(AttributeError):
                setattr(x, field, before)
            with pytest.raises(AttributeError):
                delattr(x, field)
            assert getattr(x, field) is before
    with pytest.raises(AttributeError):
        w.extra = 1


def test_reflection_table_is_owned_by_its_root_system():
    rs = build_root_system("B3")
    # the coroot table is built on first use, not by build_root_system
    assert rs._coroots is None
    table = rs.coroots
    assert rs.coroots is table
    assert len(table) == 2 * len(rs.pos_roots)
    other = build_root_system("B3")
    assert other.coroots is not table
    assert other.coroots == table
    for i in range(1, rs.rank + 1):
        assert table[rs.simple(i)] == rs.cartan[i - 1]


# ---------------------------------------------------------------------------
# differential test against the matrix representation


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _apply(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _is_negative(v):
    return all(x <= 0 for x in v)


def _matrix_oracle(rs):
    """Every group element as (word, matrix, inverse matrix), by products of
    the reflection matrices alone: a breadth-first search over the matrices
    from the identity, right multiplying by each simple reflection, so each
    word found is a shortest one."""
    n = rs.rank
    ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    gens = [_cartan_reflection(rs, rs.simple(i)) for i in range(1, n + 1)]
    found = {ident: ((), ident)}
    queue = [ident]
    for m in queue:
        word, inv = found[m]
        for i, s in enumerate(gens, start=1):
            nxt = _matmul(m, s)
            if nxt not in found:
                found[nxt] = (word + (i,), _matmul(s, inv))
                queue.append(nxt)
    return [(word, m, inv) for m, (word, inv) in found.items()]


@pytest.mark.parametrize("label", ("A3", "B3", "C3", "G2", "D4"))
def test_orbit_vector_elements_match_the_matrix_oracle(label):
    rs = build_root_system(label)
    oracle = _matrix_oracle(rs)
    by_mat = {m: from_word(rs, word) for word, m, _ in oracle}
    reflections = {
        root: _cartan_reflection(rs, beta)
        for beta in rs.pos_roots
        for root in (beta, tuple(-c for c in beta))
    }

    def same(x, m):
        # x is the element whose oracle matrix is m: equal, with equal hashes
        y = by_mat[m]
        assert x == y and hash(x) == hash(y)
        assert _matrix(x) == m

    for word, m, inv in oracle:
        w = by_mat[m]
        assert _matrix(w) == m and _inv_matrix(w) == inv
        assert w.length == sum(_is_negative(_apply(inv, b)) for b in rs.pos_roots) == len(word)
        assert w.left_descents() == [
            i for i in range(1, rs.rank + 1) if _is_negative(_apply(inv, rs.simple(i)))
        ]
        for i in range(1, rs.rank + 1):
            same(simple_reflection(rs, i) * w, _matmul(reflections[rs.simple(i)], m))
        for root, r in reflections.items():
            same(reflection_of_root(rs, root) * w, _matmul(r, m))

    rng = random.Random(12)
    for _ in range(500):
        (_, mu, inv_u), (_, mv, _) = rng.choice(oracle), rng.choice(oracle)
        u, v = by_mat[mu], by_mat[mv]
        same(u * v, _matmul(mu, mv))
        same(u.inverse(), inv_u)
        assert (u == v) == (mu == mv)

    # last, as a wrong reflection makes the enumeration run without end
    group = weyl_group(rs)
    assert len(group) == len(oracle) == len({w.vec for w in group})
    assert set(group) == set(by_mat.values())
