"""Sparse linear algebra over QRat: the one term-map layer of uqplus.

Vectors are dicts mapping hashable, totally ordered keys to nonzero
QRat coefficients.  This module is the one place that accumulates such
term maps: add_term adds a single term, add_scaled a whole vector, and
both drop exact zeros.  Callers iterate term maps in insertion order,
so both keep it: a key that cancels and is added again goes to the end.

TermMap is the element arithmetic that FreeElt, UElt and TensorElt
share: sums, differences, negation, scaling, equality and hashing of
their term maps.  SpanSolver is the echelon; it stores each row as the
rewrite rule of its pivot, which is the form the Serre normal form uses.
"""

from __future__ import annotations

from ..coeffs import QRat, ZERO


def add_term(dst: dict, key, c: QRat) -> None:
    """dst[key] += c, dropping an exact zero."""
    cur = dst.get(key)
    nxt = c if cur is None else cur + c
    if nxt.is_zero():
        dst.pop(key, None)
    else:
        dst[key] = nxt


def add_scaled(dst: dict, src: dict, c: QRat) -> None:
    """dst += c * src, dropping exact zeros.

    The loop is add_term written out: this is the inner loop of
    SpanSolver.reduce, and a call per term costs there.
    """
    if c.is_zero():
        return
    for k, val in src.items():
        cur = dst.get(k)
        nxt = val * c if cur is None else cur + val * c
        if nxt.is_zero():
            dst.pop(k, None)
        else:
            dst[k] = nxt


class TermMap:
    """A finite QRat-linear combination of keys, with exact zeros dropped.

    Subclasses keep their own products and views and supply two hooks:
    _new(terms) builds an element of the same type over the same
    algebra, and _ctx() names the algebra two equal elements must share
    (None when there is none).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    def _new(self, terms: dict):
        raise NotImplementedError

    def _ctx(self):
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._new(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, -c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, c: QRat):
        return self._new({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other._ctx() is self._ctx()
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class SpanSolver:
    """Row space in reduced echelon form, pivot on the largest key.

    Each row is stored as the rewrite rule of its pivot: rows[p] maps
    non-pivot keys to the coefficients of what p equals modulo the span,
    so p - rows[p] lies in the span and rows[p] has no entry for p.  No
    rule holds any pivot, so reduce() replaces each pivot by its rule in
    one pass, and a vector lies in the span iff it reduces to {}.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> rewrite rule of that pivot

    def reduce(self, v: dict) -> dict:
        out = dict(v)
        # rules hold no pivot, so replacing a pivot never brings one back,
        # and one pass over the keys in any order leaves none
        for key in list(out):
            rule = self.rows.get(key)
            if rule is not None:
                add_scaled(out, rule, out.pop(key))
        return out

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True when the rank grew."""
        red = self.reduce(v)
        if not red:
            return False
        p = max(red)
        neg_inv = -red.pop(p).inverse()
        rule = {k: c * neg_inv for k, c in red.items()}
        for other in self.rows.values():
            c = other.pop(p, None)
            if c is not None:
                add_scaled(other, rule, c)
        self.rows[p] = rule
        return True

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    @property
    def rank(self) -> int:
        return len(self.rows)


def solve_in_span(vectors: list[dict], target: dict) -> list[QRat] | None:
    """Coefficients c with sum c_i * vectors[i] = target, or None.

    When the vectors are linearly dependent an arbitrary valid solution
    is returned; callers relying on uniqueness must pass independent
    vectors.
    """
    rows: dict = {}    # pivot key -> rewrite rule of the pivot, as in SpanSolver
    combos: dict = {}  # pivot key -> expression of pivot - rule in the inputs

    def express(v: dict) -> tuple[dict, list[QRat]]:
        # reduce v by leading keys, tracking the combination used
        red = dict(v)
        used = [ZERO] * len(vectors)
        while red:
            p = max(red)
            rule = rows.get(p)
            if rule is None:
                return red, used
            c = red.pop(p)
            add_scaled(red, rule, c)
            used = [a + c * b for a, b in zip(used, combos[p])]
        return red, used

    for i, vec in enumerate(vectors):
        red, used = express(vec)
        if red:
            p = max(red)
            inv = red.pop(p).inverse()
            neg_inv = -inv
            rows[p] = {k: c * neg_inv for k, c in red.items()}
            combo = [-c * inv for c in used]
            combo[i] = combo[i] + inv
            combos[p] = combo
    red, used = express(target)
    if red:
        return None
    return used
