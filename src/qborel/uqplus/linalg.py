"""Sparse linear algebra over QRat used by the normal-form machinery.

Vectors are dicts mapping hashable, totally ordered keys to nonzero
QRat coefficients.  This module is the one place that accumulates such
term maps: add_term adds a single term, add_scaled a whole vector, and
both drop exact zeros.  Callers iterate term maps in insertion order,
so both keep it: a key that cancels and is added again goes to the end.
"""

from __future__ import annotations

from ..coeffs import QRat, ZERO, ONE


def add_term(dst: dict, key, c: QRat) -> None:
    """dst[key] += c, dropping an exact zero."""
    cur = dst.get(key)
    nxt = c if cur is None else cur + c
    if nxt == ZERO:
        dst.pop(key, None)
    else:
        dst[key] = nxt


def add_scaled(dst: dict, src: dict, c: QRat) -> None:
    """dst += c * src, dropping exact zeros.

    The loop is add_term written out: this is the inner loop of
    SpanSolver.reduce, and a call per term costs there.
    """
    if c == ZERO:
        return
    for k, val in src.items():
        cur = dst.get(k)
        nxt = val * c if cur is None else cur + val * c
        if nxt == ZERO:
            dst.pop(k, None)
        else:
            dst[k] = nxt


class SpanSolver:
    """Row space in reduced echelon form, pivot on the largest key.

    Rows are kept mutually reduced: no row contains another row's pivot,
    so a vector lies in the span iff reduce() returns the empty dict.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot key -> row dict, coefficient 1 at the pivot

    def reduce(self, v: dict) -> dict:
        out = dict(v)
        # every key a row introduces is a non-pivot, so one pass suffices
        for key in sorted(out, reverse=True):
            row = self.rows.get(key)
            if row is not None and key in out:
                add_scaled(out, row, -out[key])
        return out

    def insert(self, v: dict) -> bool:
        """Add v to the span; returns True when the rank grew."""
        red = self.reduce(v)
        if not red:
            return False
        p = max(red)
        inv = red[p].inverse()
        row = {k: c * inv for k, c in red.items()}
        for other in self.rows.values():
            if p in other:
                add_scaled(other, row, -other[p])
        self.rows[p] = row
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
    rows: dict = {}    # pivot key -> row with coefficient 1 at the pivot
    combos: dict = {}  # pivot key -> expression of that row in the inputs

    def express(v: dict) -> tuple[dict, list[QRat]] | None:
        # reduce v by leading keys, tracking the combination used
        red = dict(v)
        used = [ZERO] * len(vectors)
        while red:
            p = max(red)
            row = rows.get(p)
            if row is None:
                return red, used
            c = red[p]
            add_scaled(red, row, -c)
            used = [a + c * b for a, b in zip(used, combos[p])]
        return red, used

    for i, vec in enumerate(vectors):
        red, used = express(vec)
        if red:
            p = max(red)
            inv = red[p].inverse()
            rows[p] = {k: c * inv for k, c in red.items()}
            combo = [-c * inv for c in used]
            combo[i] = combo[i] + inv
            combos[p] = combo
    red, used = express(target)
    if red:
        return None
    return used
