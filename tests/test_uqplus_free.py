"""The free algebra on the E_i and reduction modulo the quantum Serre ideal."""

import gc
import os
import tracemalloc
from itertools import permutations, product

import pytest

import qborel
from qborel.coeffs import ONE, parse, q_integer, qpow
from qborel.errors import BadIndex, HeightOverflow, InvalidPair
from qborel.rootsys import build_root_system
from qborel.uqplus.free import (
    FreeElt,
    NFContext,
    kostant_dim,
    serre_relation,
    word_weight,
)
from qborel.uqplus.linalg import SpanSolver

A2 = build_root_system("A2")


def test_word_weight():
    assert word_weight((), 2) == (0, 0)
    assert word_weight((1, 2, 1), 2) == (2, 1)


def test_free_elt_algebra():
    u = FreeElt.gen(1)
    v = FreeElt.gen(2)
    x = u * v - v * u.scale(qpow(3))
    assert x.terms == {(1, 2): ONE, (2, 1): -qpow(3)}
    assert (x - x).is_zero()
    assert FreeElt.zero().is_zero()
    assert x.homogeneous_weight(2) == (1, 1)
    assert (u + v).homogeneous_weight(2) is None


def test_serre_relation_a2():
    r = serre_relation(A2, 1, 2)
    assert r.terms == {
        (1, 1, 2): ONE,
        (1, 2, 1): -q_integer(2, 1),
        (2, 1, 1): ONE,
    }


def test_serre_relation_orthogonal_case():
    rs = build_root_system([[2, 0], [0, 2]])
    r = serre_relation(rs, 1, 2)
    assert r.terms == {(1, 2): ONE, (2, 1): -ONE}


def test_serre_relation_errors():
    with pytest.raises(InvalidPair):
        serre_relation(A2, 1, 1)
    with pytest.raises(BadIndex):
        serre_relation(A2, 0, 2)


def test_nf_plus_kills_the_ideal():
    ctx = NFContext(A2, 8)
    assert ctx.reduce(serre_relation(A2, 1, 2)).is_zero()
    assert ctx.reduce(serre_relation(A2, 2, 1)).is_zero()
    assert ctx.reduce(FreeElt.zero()).is_zero()
    u, v = FreeElt.gen(1), FreeElt.gen(2)
    x = (u * v - v * u.scale(qpow(3))) * serre_relation(A2, 1, 2) * (u + v * v)
    assert ctx.reduce(x).is_zero()


def test_nf_plus_is_a_projection():
    ctx = NFContext(A2, 8)
    u, v = FreeElt.gen(1), FreeElt.gen(2)
    y = u * u * v * u + (v * u * v).scale(parse("1/2*q^2"))
    ny = ctx.reduce(y)
    assert ctx.reduce(ny) == ny
    assert ctx.reduce(y - ny).is_zero()


def test_complement_basis_ordering():
    ctx = NFContext(A2, 8)
    assert ctx.dim_plus((1, 1)) == 2
    assert ctx.complement_basis((1, 1)) == ((1, 2), (2, 1))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_dims_match_kostant(label):
    rs = build_root_system(label)
    ctx = NFContext(rs)
    bound = ctx.height_bound
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            mu = (a, b)
            if not 0 < a + b:
                continue
            assert ctx.dim_plus(mu) == kostant_dim(rs, mu), mu
            # the stored pivots are the new ones: S_mu, the letters in front of
            # the complement words below, splits into them and the complement
            comp = ctx.component(mu)
            s_mu = [
                (i,) + c
                for i, lower in ((1, (a - 1, b)), (2, (a, b - 1)))
                if min(lower) >= 0
                for c in ctx.complement_basis(lower)
            ]
            complement = set(comp.complement)
            assert set(comp.rewrites) | complement == set(s_mu), mu
            assert len(comp.rewrites) + len(complement) == len(s_mu), mu
            for rule in comp.rewrites.values():
                assert set(rule) <= complement, mu


def _oracle_words(mu, memo):
    """Every word with letter multiplicities mu, ascending lex."""
    if mu not in memo:
        if not any(mu):
            memo[mu] = ((),)
        else:
            memo[mu] = tuple(
                (i,) + w
                for i in range(1, len(mu) + 1)
                if mu[i - 1]
                for w in _oracle_words(mu[: i - 1] + (mu[i - 1] - 1,) + mu[i:], memo)
            )
    return memo[mu]


def _oracle_component(rs, mu, memo):
    """Echelon of every u*rel*v at weight mu, for all words u and v."""
    n = rs.rank
    solver = SpanSolver()
    for i, j in permutations(range(1, n + 1), 2):
        rel = serre_relation(rs, i, j)
        gap = tuple(a - b for a, b in zip(mu, word_weight(next(iter(rel.terms)), n)))
        if min(gap) < 0:
            continue
        for left in product(*(range(g + 1) for g in gap)):
            right = tuple(a - b for a, b in zip(gap, left))
            for u in _oracle_words(left, memo):
                for v in _oracle_words(right, memo):
                    solver.insert({u + w + v: c for w, c in rel.terms.items()})
    complement = tuple(w for w in _oracle_words(mu, memo) if w not in solver.rows)
    return solver.rows, complement


@pytest.mark.parametrize("label,height", [("A2", 8), ("B2", 8), ("G2", 8), ("A3", 6)])
def test_components_match_the_word_pair_oracle(label, height):
    rs = build_root_system(label)
    ctx = NFContext(rs, height)
    memo = {}
    for mu in product(range(height + 1), repeat=rs.rank):
        if 0 < sum(mu) <= height:
            rules, complement = _oracle_component(rs, mu, memo)
            assert ctx.complement_basis(mu) == complement, mu
            for p, rule in rules.items():
                got = ctx.reduce_word(p)
                assert got == rule, (mu, p)
                got.clear()  # a caller's change must not reach the context
                assert ctx.reduce_word(p) == rule, (mu, p)
            for c in complement:
                assert ctx.reduce_word(c) == {c: ONE}, (mu, c)


def test_kernel_pins_no_memory():
    # only blocks that qborel's own code allocated count, so a gc callback
    # that another test's library registered cannot move the figures
    own = [tracemalloc.Filter(True, os.path.join(os.path.dirname(qborel.__file__), "*"))]
    g2 = build_root_system("G2")

    def pinned() -> int:
        gc.collect()
        return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(own).traces)

    def build():
        ctx = NFContext(g2, 8)
        for mu in product(range(9), repeat=2):
            if sum(mu) <= 8:
                ctx.dim_plus(mu)

    tracemalloc.start()
    try:
        start = pinned()
        build()
        first = pinned()
        build()
        second = pinned()
    finally:
        tracemalloc.stop()
    assert first - start < 16 * 1024
    assert second <= first


def test_kostant_examples():
    # weight a1+a2 in A2: E1E2, E2E1 modulo one Serre-free relation -> 2,
    # as partitions: (a1+a2) or (a1)+(a2)
    assert kostant_dim(A2, (1, 1)) == 2
    assert kostant_dim(A2, (2, 1)) == 2
    assert kostant_dim(A2, (0, 0)) == 1
    assert kostant_dim(A2, (4, 0)) == 1


@pytest.mark.parametrize("mu", [(1,), (2,), (1, 1, 1), ()], ids=["1", "2", "1-1-1", "empty"])
def test_kostant_rejects_a_weight_of_the_wrong_length(mu):
    # zip used to truncate: (1,) and (2,) never returned, (1, 1, 1) gave 2, () gave 1
    with pytest.raises(ValueError, match="rank 2"):
        kostant_dim(A2, mu)


def test_kostant_edge_weights():
    assert kostant_dim(A2, (-1, 3)) == 0
    assert kostant_dim(A2, (0, -1)) == 0
    assert kostant_dim(A2, (0, 0)) == 1
    assert kostant_dim(A2, [1, 1]) == 2
    # the walk down a root's multiples is a loop, so a tall weight stays
    # within the recursion limit: the depth is the number of roots
    assert kostant_dim(build_root_system("A1"), (5000,)) == 1


def _kostant_oracle(rs, mu):
    """The uncached recursion kostant_dim used before its table: every
    multiple of each root in turn, nothing kept."""

    def count(idx, rem):
        if all(c == 0 for c in rem):
            return 1
        if idx >= len(rs.pos_roots):
            return 0
        beta = rs.pos_roots[idx]
        total = 0
        r = rem
        while True:
            total += count(idx + 1, r)
            nxt = tuple(a - b for a, b in zip(r, beta))
            if any(c < 0 for c in nxt):
                break
            r = nxt
        return total

    return count(0, mu)


KOSTANT_HEIGHTS = {"A2": 12, "B2": 12, "G2": 12, "A3": 9, "B3": 8, "C3": 8, "D4": 6, "B4": 6, "F4": 5}


def _weights_up_to(n, h):
    return [mu for mu in product(range(h + 1), repeat=n) if sum(mu) <= h]


def test_kostant_table_matches_the_uncached_recursion():
    seen = 0
    for label, h in KOSTANT_HEIGHTS.items():
        rs = build_root_system(label)
        for mu in _weights_up_to(rs.rank, h):
            assert kostant_dim(rs, mu) == _kostant_oracle(rs, mu), (label, mu)
            seen += 1
    assert seen == 1369


def test_kostant_table_is_owned_by_its_root_system(monkeypatch):
    rs = build_root_system("G2")
    assert rs._kostant == {}
    weights = _weights_up_to(2, 9)
    first = [kostant_dim(rs, mu) for mu in weights]
    size = len(rs._kostant)
    assert size > 0
    assert all(type(k) is int and type(v) is int for (k, _), v in rs._kostant.items())
    assert [kostant_dim(rs, mu) for mu in weights] == first
    assert len(rs._kostant) == size
    # a second object of the same type starts its own table
    other = build_root_system("G2")
    assert other == rs and other._kostant == {}
    assert kostant_dim(other, (3, 2)) == kostant_dim(rs, (3, 2))
    assert other._kostant is not rs._kostant and 0 < len(other._kostant) < size
    assert len(rs._kostant) == size

    # the counts never build the Serre echelon they check
    def refuse(self, *args, **kwargs):
        raise AssertionError("kostant_dim built an NFContext")

    monkeypatch.setattr(NFContext, "__init__", refuse)
    fresh = build_root_system("G2")
    assert [kostant_dim(fresh, mu) for mu in weights] == first


def test_a_weight_of_the_wrong_length_is_refused():
    ctx = NFContext(A2)
    for mu in ((1, 1, 1), (1,)):
        with pytest.raises(ValueError):
            ctx.dim_plus(mu)
        with pytest.raises(ValueError):
            ctx.complement_basis(mu)
    assert not ctx._components


def test_a_weight_with_a_negative_entry_is_the_empty_component():
    ctx = NFContext(A2)
    for mu in ((-1, 2), (2, -1), (-1, 0)):
        assert ctx.dim_plus(mu) == kostant_dim(A2, mu) == 0
        assert ctx.complement_basis(mu) == ()
    assert not ctx._components


def test_height_overflow():
    ctx = NFContext(A2, 8)
    with pytest.raises(HeightOverflow):
        ctx.check_height((5, 4))
    small = NFContext(A2, 2)
    with pytest.raises(HeightOverflow):
        small.reduce(FreeElt({(1, 1, 2): ONE}))
