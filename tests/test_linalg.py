"""The sparse term-map accumulators add_term and add_scaled."""

from qborel.coeffs import ONE, ZERO, from_int, qpow
from qborel.uqplus.linalg import add_scaled, add_term


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
