"""The term-map layer: the accumulators, the echelon and TermMap."""

import random

import pytest

from qborel.coeffs import ONE, ZERO, from_int, qpow
from qborel.rootsys import build_root_system
from qborel.uqplus.free import FreeElt
from qborel.uqplus.full import UAlgebra, UElt
from qborel.uqplus.hopf import TensorElt, coproduct
from qborel.uqplus.linalg import SpanSolver, TermMap, add_scaled, add_term, solve_in_span


def test_add_term_cancellation_removes_key():
    d = {"a": qpow(1), "b": ONE}
    add_term(d, "a", -qpow(1))
    assert d == {"b": ONE}
    add_term(d, "c", ZERO)
    assert d == {"b": ONE}


def test_add_scaled_cancellation_removes_key():
    d = {"a": qpow(1), "b": ONE}
    add_scaled(d, {"a": ONE, "c": qpow(-1)}, -qpow(1))
    assert d == {"b": ONE, "c": -ONE}


def test_readded_key_goes_to_end():
    # callers iterate term maps in insertion order, so a key that cancels
    # and comes back must sit after the keys that never left
    d = {"a": ONE, "b": ONE}
    add_term(d, "a", -ONE)
    add_term(d, "a", from_int(2))
    assert list(d) == ["b", "a"]
    assert d["a"] == from_int(2)
    e = {"a": ONE, "b": ONE}
    add_scaled(e, {"a": ONE}, -ONE)
    add_scaled(e, {"a": ONE}, from_int(2))
    assert list(e) == ["b", "a"]


def test_add_term_keeps_position_of_existing_key():
    d = {"a": ONE, "b": ONE}
    add_term(d, "a", ONE)
    assert list(d) == ["a", "b"]
    assert d["a"] == from_int(2)


def test_add_scaled_by_zero_is_noop():
    d = {"a": ONE}
    add_scaled(d, {"a": -ONE, "b": ONE}, ZERO)
    assert d == {"a": ONE}
    assert list(d) == ["a"]


# ---------------------------------------------------------------------------
# SpanSolver against solve_in_span, which runs its own elimination


def _rand_vec(rng, keys, earlier):
    # a third of the draws lie in the span of the earlier vectors
    if earlier and rng.random() < 1 / 3:
        out: dict = {}
        for v in rng.sample(earlier, min(len(earlier), rng.randint(1, 3))):
            add_scaled(out, v, from_int(rng.choice([-2, -1, 1, 3])) * qpow(rng.randint(-2, 2)))
        return out
    picked = rng.sample(keys, rng.randint(1, min(4, len(keys))))
    return {k: from_int(rng.choice([-3, -1, 1, 2])) * qpow(rng.randint(-2, 2)) for k in picked}


@pytest.mark.parametrize("seed", range(25))
def test_span_solver_matches_solve_in_span(seed):
    rng = random.Random(seed)
    keys = [(i, rng.randint(0, 2)) for i in range(rng.randint(3, 7))]
    solver, seen = SpanSolver(), []
    outcomes = set()
    for _ in range(10):
        v = _rand_vec(rng, keys, seen)
        grew = solve_in_span(seen, v) is None
        assert solver.insert(v) == grew
        outcomes.add(grew)
        seen.append(v)
        pivots = set(solver.rows)
        for p, rule in solver.rows.items():
            assert not pivots & set(rule), (p, rule)
            gen = {p: ONE}
            add_scaled(gen, rule, -ONE)
            assert solve_in_span(seen, gen) is not None
        t = _rand_vec(rng, keys, seen)
        # the remainder holds no pivot, differs from t by a vector of the
        # span, and does not depend on the order of t's keys
        red = solver.reduce(t)
        assert not pivots & set(red), red
        gap = dict(t)
        add_scaled(gap, red, -ONE)
        assert solve_in_span(seen, gap) is not None
        assert solver.reduce(dict(reversed(t.items()))) == red
        assert solver.contains(t) == (solve_in_span(seen, t) is not None)
    assert solver.rank <= len(keys)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the element arithmetic FreeElt, UElt and TensorElt share through TermMap

A2 = build_root_system("A2")


def _pair(kind, alg):
    """Two equal but distinct elements of one kind, built independently."""

    def build():
        if kind == "free":
            return FreeElt({(1, 2): qpow(1), (2,): from_int(-2)})
        if kind == "u":
            return alg.E(1) * alg.K((1, 0)) + alg.F(2).scale(qpow(-1))
        return coproduct(alg, alg.E(1) * alg.E(2))

    return build(), build()


@pytest.mark.parametrize("kind", ["free", "u", "tensor"])
def test_term_map_contract(kind):
    alg = UAlgebra(A2)
    x, y = _pair(kind, alg)
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    assert (x - x).is_zero() and (x + (-x)).is_zero()
    assert x.scale(ZERO).is_zero()
    assert type(x - x) is type(x)
    assert (x + x) - y == x
    assert x.scale(from_int(2)) == x + y
    assert -(-x) == x
    assert x != x.scale(from_int(2))


@pytest.mark.parametrize("kind", ["u", "tensor"])
def test_elements_over_different_algebras_differ(kind):
    x, _ = _pair(kind, UAlgebra(A2))
    y, _ = _pair(kind, UAlgebra(A2))
    assert x.terms == y.terms
    assert x != y


def test_constructors_drop_zeros():
    alg = UAlgebra(A2)
    assert FreeElt({(1,): ZERO, (2,): ONE}).terms == {(2,): ONE}
    assert UElt(alg, {((), (0, 0), (1,)): ZERO}).is_zero()
    zero = (0, 0)
    t = TensorElt(alg, {(zero, (1,), zero, ()): ONE, (zero, (), zero, (1,)): ZERO})
    assert t.terms == {(zero, (1,), zero, ()): ONE}


@pytest.mark.parametrize("cls", [FreeElt, UElt, TensorElt])
def test_shared_arithmetic_lives_in_term_map(cls):
    shared = {"is_zero", "__add__", "__sub__", "__neg__", "scale", "__eq__", "__hash__"}
    assert issubclass(cls, TermMap)
    assert not shared & set(vars(cls))
