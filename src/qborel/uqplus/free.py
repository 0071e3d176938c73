"""The positive part as a free algebra modulo the quantum Serre ideal.

Words are tuples of simple-root indices (1-based).  The ideal is
echelonized one weight component at a time, lazily, up to a height
bound; the non-pivot words of each component form the canonical basis
of the corresponding graded piece of U+.  A component is built from the
components one letter below it, so building one builds the whole cone
of weights below it.  Its echelon runs in the span of the letters put in
front of the complement words below, which has Kostant size, and it
stores the rules of its new pivots only: a word reduces one letter at a
time, from its last letter to its first.
"""

from __future__ import annotations

from itertools import permutations

from ..coeffs import QRat, ONE, q_binomial
from ..errors import BadIndex, HeightOverflow, InvalidPair
from ..rootsys import RootSystem, Vec
from .linalg import SpanSolver, TermMap, add_scaled, add_term

Word = tuple[int, ...]


def word_weight(word: Word, n: int) -> Vec:
    out = [0] * n
    for i in word:
        out[i - 1] += 1
    return tuple(out)


class FreeElt(TermMap):
    """A finite QRat-linear combination of words in the E generators."""

    __slots__ = ()

    def _new(self, terms: dict) -> "FreeElt":
        return FreeElt(terms)

    @staticmethod
    def zero() -> "FreeElt":
        return FreeElt({})

    @staticmethod
    def one() -> "FreeElt":
        return FreeElt({(): ONE})

    @staticmethod
    def gen(i: int) -> "FreeElt":
        return FreeElt({(i,): ONE})

    def __mul__(self, other: "FreeElt") -> "FreeElt":
        out: dict[Word, QRat] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_term(out, w1 + w2, c1 * c2)
        return FreeElt(out)

    def weight_components(self, n: int) -> dict[Vec, "FreeElt"]:
        comps: dict[Vec, dict[Word, QRat]] = {}
        for w, c in self.terms.items():
            comps.setdefault(word_weight(w, n), {})[w] = c
        return {mu: FreeElt(d) for mu, d in comps.items()}

    def homogeneous_weight(self, n: int) -> Vec | None:
        """The common weight of all terms, or None if mixed or zero."""
        weights = {word_weight(w, n) for w in self.terms}
        if len(weights) == 1:
            return next(iter(weights))
        return None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w].render()
            mono = "*".join(f"E{i}" for i in w) if w else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)


def serre_relation(rs: RootSystem, i: int, j: int) -> FreeElt:
    """The quantum Serre element for the ordered pair (i, j)."""
    n = rs.rank
    if not (1 <= i <= n and 1 <= j <= n):
        raise BadIndex(f"simple indices must lie in 1..{n}")
    if i == j:
        raise InvalidPair("the Serre relation needs two distinct simple roots")
    a_ij = rs.cartan[i - 1][j - 1]
    d_i = rs.d[i - 1]
    m = 1 - a_ij
    out: dict[Word, QRat] = {}
    for s in range(m + 1):
        coef = q_binomial(m, s, d_i)
        if s % 2:
            coef = -coef
        word = (i,) * (m - s) + (j,) + (i,) * s
        add_term(out, word, coef)
    return FreeElt(out)


def kostant_dim(rs: RootSystem, mu: Vec) -> int:
    """Number of ways to write mu as an N-combination of positive roots.

    Independent of the Serre-ideal machinery, with integers only; used to
    cross-check the graded dimensions of U+.  The count p_k(nu) of nu over
    the roots from index k on is p_(k+1)(nu) + p_k(nu - beta_k), and each
    value is kept in ``rs._kostant`` under (k, nu), so one table per root
    system serves every call.  A weight with a negative entry counts 0;
    one whose length is not the rank raises ValueError.

    >>> from qborel.rootsys import build_root_system
    >>> kostant_dim(build_root_system("A2"), (1, 1))
    2
    """
    if len(mu) != rs.rank:
        raise ValueError(f"weight {mu} does not have rank {rs.rank} entries")
    if min(mu) < 0:
        return 0
    roots = rs.pos_roots
    table = rs._kostant

    def count(k: int, nu: Vec) -> int:
        if not any(nu):
            return 1
        if k == len(roots):
            return 0
        got = table.get((k, nu))
        if got is None:
            # walk nu, nu - beta_k, ... down to a weight whose p_k is known, then
            # fill the walk back up; the recursion only ever goes one root deeper
            walk = [nu]
            while True:
                nxt = tuple([a - b for a, b in zip(walk[-1], roots[k])])
                if min(nxt) < 0 or not any(nxt) or (k, nxt) in table:
                    break
                walk.append(nxt)
            got = count(k, nxt) if min(nxt) >= 0 else 0
            for r in reversed(walk):
                got += count(k + 1, r)
                table[k, r] = got
        return got

    return count(0, tuple(mu))


class _WeightComponent:
    __slots__ = ("rewrites", "complement", "normal_forms")

    def __init__(self, rewrites, complement):
        self.rewrites = rewrites      # new pivot word -> dict(complement word -> QRat)
        self.complement = complement  # non-pivot words, ascending lex
        self.normal_forms = {}        # word -> its normal form, filled as words are reduced


class NFContext:
    """Per-weight reduction data for the Serre ideal, built lazily; owns every component.

    A letter in front of a pivot gives a pivot, so at weight mu only the
    words S_mu = {(i,)+c : c in C_(mu-alpha_i)}, C the complement words
    one letter below, can be new pivots.  A component stores the rules of
    its new pivots alone, and a word (i,)+w' reduces as i put in front of
    the normal form of w', then those rules.  The normal forms are kept
    on the components, so they are freed with the context.
    """

    def __init__(self, rs: RootSystem, height_bound: int | None = None):
        self.rs = rs
        self.height_bound = 2 * rs.highest_height if height_bound is None else height_bound
        self._components: dict[Vec, _WeightComponent] = {}
        # for a_ij = 0 the (j, i) relation is minus the (i, j) one, so keep i < j only
        rels = [
            serre_relation(rs, i, j)
            for i, j in permutations(range(1, rs.rank + 1), 2)
            if i < j or rs.cartan[i - 1][j - 1]
        ]
        self._serre = [(word_weight(next(iter(r.terms)), rs.rank), r) for r in rels]

    def check_height(self, mu: Vec) -> None:
        if sum(mu) > self.height_bound:
            raise HeightOverflow(
                f"weight {mu} needs height {sum(mu)}, above the bound {self.height_bound}"
            )

    def component(self, mu: Vec) -> _WeightComponent:
        self.check_height(mu)
        comp = self._components.get(mu)
        if comp is None:
            comp = self._build_component(mu)
            self._components[mu] = comp
        return comp

    def _build_component(self, mu: Vec) -> _WeightComponent:
        # I_mu = sum_i E_i I_(mu - alpha_i) + sum_rel rel C_(mu - wt rel).  Sending each
        # word w to w[0] followed by the normal form of w[1:] kills the first sum and maps
        # I_mu onto its part in span(S_mu), which the relations times C_gap then span
        if not any(mu):
            return _WeightComponent({}, ((),))
        solver = SpanSolver()
        for nu, rel in self._serre:
            gap = tuple(a - b for a, b in zip(mu, nu))
            if min(gap) >= 0:
                for v in self.component(gap).complement:
                    row: dict[Word, QRat] = {}
                    for w, c in rel.terms.items():
                        add_scaled(row, self._lift(w + v), c)
                    solver.insert(row)
        rewrites = solver.rows  # the rewrite rules of the new pivot words
        words = (
            (i,) + c
            for i in range(1, len(mu) + 1)
            if mu[i - 1]
            for c in self.component(mu[: i - 1] + (mu[i - 1] - 1,) + mu[i:]).complement
        )
        return _WeightComponent(rewrites, tuple(w for w in words if w not in rewrites))

    def _lift(self, w: Word) -> dict[Word, QRat]:
        """w[0] followed by the normal form of w[1:]: a vector in span(S_mu)."""
        head = w[:1]
        return {head + k: c for k, c in self._normal_form(w[1:]).items()}

    def _normal_form(self, w: Word) -> dict[Word, QRat]:
        """The normal form of w as kept in its component: callers must not change it."""
        comp = self.component(word_weight(w, self.rs.rank))
        nf = comp.normal_forms.get(w)
        if nf is None:
            if not w:
                nf = {w: ONE}
            else:
                # the rules hold no pivot, so one pass over the new pivots finishes
                nf = self._lift(w)
                for p in [k for k in nf if k in comp.rewrites]:
                    add_scaled(nf, comp.rewrites[p], nf.pop(p))
            comp.normal_forms[w] = nf
        return nf

    def reduce_word(self, w: Word) -> dict[Word, QRat]:
        return dict(self._normal_form(w))

    def reduce(self, x: FreeElt) -> FreeElt:
        """Canonical form of x modulo the Serre ideal.

        The result is supported on complement-basis words only; it is zero
        exactly when x lies in the ideal.
        """
        out: dict[Word, QRat] = {}
        for w, c in x.terms.items():
            add_scaled(out, self._normal_form(w), c)
        return FreeElt(out)

    def complement_basis(self, mu: Vec) -> tuple[Word, ...]:
        return self.component(mu).complement

    def dim_plus(self, mu: Vec) -> int:
        return len(self.component(mu).complement)
