"""PBW bases of the subalgebras attached to Weyl group elements.

A PBWVec stores coordinates over the ordered monomials
E_{beta_t}^{a_t} ... E_{beta_1}^{a_1}; exponent tuples are written
(a_1, ..., a_t).  Expansion is a per-weight linear solve against the
normal-form coordinates of the monomials, never a formula lookup.
"""

from __future__ import annotations

from itertools import combinations

from ..coeffs import QRat, ZERO, ONE, qpow
from ..errors import BadIndex, NotInSubalgebra
from ..record import Record
from ..rootsys import Vec, bilinear
from ..weyl import ReducedWord
from .free import FreeElt, Word
from .full import UAlgebra, UElt, root_vectors
from .linalg import add_scaled, add_term, solve_in_span

Expt = tuple[int, ...]


class PBWVec(Record):
    """PBW coordinates ``terms`` (exponent tuple -> coefficient) over the
    monomials of ``word``; equal when the letters and the terms agree, and
    unhashable."""

    __slots__ = _fields = ("word", "terms")
    __hash__ = None

    word: ReducedWord
    terms: dict

    def __init__(self, word: ReducedWord, terms: dict):
        self._fill(word, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PBWVec)
            and self.word.letters == other.word.letters
            and self.terms == other.terms
        )

    def to_json_obj(self) -> dict:
        return {
            "word": list(self.word.letters),
            "terms": [
                {"exponents": list(a), "coeff": self.terms[a].render()}
                for a in sorted(self.terms)
            ],
        }

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a in sorted(self.terms):
            factors = [
                f"E[{k+1}]" + (f"^{e}" if e > 1 else "")
                for k, e in reversed(list(enumerate(a)))
                if e > 0
            ]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({self.terms[a].render()})*{mono}")
        return " + ".join(parts)


class _PBWData:
    """Per-(algebra, word) caches: the root vectors as free elements, the
    PBW monomials, the exponent tuples of each weight, the LS relations,
    the PBW coordinates of the left multiplication columns, and the twist
    rows, a slot hopf._twist_rows fills and owns."""

    def __init__(self, alg: UAlgebra, word: ReducedWord):
        self.alg = alg
        self.word = word
        self.roots = word.roots
        self.free_vectors = tuple(x.as_free() for x in root_vectors(alg, word))
        self._monomials: dict[Expt, FreeElt] = {}
        self._exponents: dict[Vec, tuple[Expt, ...]] = {}
        self._ls: dict[tuple[int, int], PBWVec] = {}
        self._left_mult: dict[tuple[int, Expt], dict] = {}
        self._twist: tuple | None = None  # hopf._twist_rows

    def exponents_of_weight(self, mu: Vec) -> tuple[Expt, ...]:
        cached = self._exponents.get(mu)
        if cached is None:
            t = len(self.roots)

            def rec(k: int, rem: Vec):
                if k == t:
                    if all(c == 0 for c in rem):
                        yield ()
                    return
                beta = self.roots[k]
                a = 0
                r = rem
                while True:
                    for tail in rec(k + 1, r):
                        yield (a,) + tail
                    nxt = tuple(x - y for x, y in zip(r, beta))
                    if any(c < 0 for c in nxt):
                        break
                    r = nxt
                    a += 1

            cached = tuple(sorted(rec(0, mu)))
            self._exponents[mu] = cached
        return cached

    def monomial(self, a: Expt) -> FreeElt:
        """E^a: the monomial one factor lower times its rightmost root vector."""
        cached = self._monomials.get(a)
        if cached is None:
            k = next((k for k, e in enumerate(a) if e), None)
            if k is None:
                cached = FreeElt.one()
            else:
                lower = a[:k] + (a[k] - 1,) + a[k + 1:]
                cached = self.alg.nf.reduce(self.monomial(lower) * self.free_vectors[k])
            self._monomials[a] = cached
        return cached

    def left_mult_column(self, k: int, a: Expt) -> dict:
        """PBW coordinates of E_{beta_k} * E^a, cached per word."""
        cached = self._left_mult.get((k, a))
        if cached is None:
            prod = self.alg.nf.reduce(self.free_vectors[k - 1] * self.monomial(a))
            cached = pbw_expand(self.alg, self.word, prod).terms
            self._left_mult[(k, a)] = cached
        return cached


def pbw_data(alg: UAlgebra, word: ReducedWord) -> _PBWData:
    data = alg._pbw.get(word.letters)
    if data is None:
        data = _PBWData(alg, word)
        alg._pbw[word.letters] = data
    return data


def pbw_expand(alg: UAlgebra, word: ReducedWord, x) -> PBWVec:
    """Coordinates of x over the PBW monomials of the word.

    Accepts a FreeElt or a UElt lying in the positive part.  Raises
    NotInSubalgebra when x is not in the span.
    """
    if isinstance(x, UElt):
        x = x.as_free()
    data = pbw_data(alg, word)
    n = alg.rs.rank
    red = alg.nf.reduce(x)
    terms: dict[Expt, QRat] = {}
    for mu, comp in red.weight_components(n).items():
        expts = data.exponents_of_weight(mu)
        if not expts:
            raise NotInSubalgebra(f"no monomials of weight {mu} for this word")
        vectors = [data.monomial(a).terms for a in expts]
        sol = solve_in_span(vectors, comp.terms)
        if sol is None:
            raise NotInSubalgebra(f"weight {mu} component is outside the span")
        for a, c in zip(expts, sol):
            if c != ZERO:
                terms[a] = c
    return PBWVec(word, terms)


def pbw_contract(alg: UAlgebra, word: ReducedWord, v: PBWVec) -> FreeElt:
    """Multiply a PBWVec back out; inverse of pbw_expand."""
    data = pbw_data(alg, word)
    out: dict[Word, QRat] = {}
    for a, c in v.terms.items():
        add_scaled(out, data.monomial(a).terms, c)
    return FreeElt(out)


def ls_relation(alg: UAlgebra, word: ReducedWord, i: int, j: int) -> PBWVec:
    """PBW expansion of E_{beta_i}E_{beta_j} - q^(beta_i,beta_j) E_{beta_j}E_{beta_i}.

    The straightening theorem puts the result inside the span of the
    monomials supported strictly between i and j, of weight
    beta_i + beta_j; this shape is asserted by the test suite rather
    than assumed here.

    For i >= 2 the pair is the pair (1, j-i+1) of the suffix word
    i_i ... i_t, with i-1 zero exponents put in front: T_{i_1} ...
    T_{i_{i-1}} is an algebra automorphism sending the suffix's root
    vectors, and so its PBW monomials, to those of the word, the form is
    W-invariant, and PBW expansions are unique.  The suffix pair's weight
    can lie above beta_i + beta_j, so a pair whose suffix weight passes
    the height bound is expanded on the word itself.
    """
    t = len(word.letters)
    if not (1 <= i < j <= t):
        raise BadIndex(f"need 1 <= i < j <= {t}, got ({i}, {j})")
    data = pbw_data(alg, word)
    cached = data._ls.get((i, j))
    if cached is not None:
        return cached
    out = None
    if i > 1:
        suffix = ReducedWord(alg.rs, word.letters[i - 1:])
        m = j - i + 1
        if sum(suffix.roots[0]) + sum(suffix.roots[m - 1]) <= alg.nf.height_bound:
            pad = (0,) * (i - 1)
            rel = ls_relation(alg, suffix, 1, m)
            out = PBWVec(word, {pad + a: c for a, c in rel.terms.items()})
    if out is None:
        ei = data.free_vectors[i - 1]
        ej = data.free_vectors[j - 1]
        scal = qpow(bilinear(alg.rs, data.roots[i - 1], data.roots[j - 1]))
        out = pbw_expand(alg, word, ei * ej - (ej * ei).scale(scal))
    data._ls[(i, j)] = out
    return out


# ---------------------------------------------------------------------------
# characters


def _theta_supported(a: Expt, S) -> bool:
    """Whether the monomial E^a uses only positions in S."""
    return all(e == 0 or k + 1 in S for k, e in enumerate(a))


def _theta_residual(alg: UAlgebra, word: ReducedWord, i: int, j: int, S) -> dict:
    """The theta-supported part of E_{beta_i}E_{beta_j} - E_{beta_j}E_{beta_i}.

    The commutator is ls_relation(i, j) plus (q^(beta_i,beta_j) - 1)
    E_{beta_j}E_{beta_i}.  A character supported on S, and the quotient by
    the root vectors outside S, send every other monomial to zero, so
    they respect the commutator exactly when this part vanishes there.
    """
    rel = ls_relation(alg, word, i, j)
    resid = {a: c for a, c in rel.terms.items() if _theta_supported(a, S)}
    if i in S and j in S:
        pair = bilinear(alg.rs, word.roots[i - 1], word.roots[j - 1])
        key = tuple((1 if p in (i, j) else 0) for p in range(1, len(word.letters) + 1))
        add_term(resid, key, qpow(pair) - ONE)
    return resid


def _eval_terms(terms: dict, values: dict) -> QRat:
    """Sum over terms of c * prod_k values[k]^a_k; a term that uses a
    position outside values contributes zero."""
    total = ZERO
    for a, c in terms.items():
        val = c
        for k, e in enumerate(a, start=1):
            if e == 0:
                continue
            if k not in values:
                break
            val = val * values[k] ** e
        else:
            total = total + val
    return total


def char_eval(char, x: PBWVec) -> QRat:
    """Evaluate a concrete character on a PBW vector.

    The character sends E_{beta_k} to f(beta_k) for Theta positions and
    to zero elsewhere, extended multiplicatively over monomials.
    """
    theta = char.stratum.theta
    if theta.word.letters != x.word.letters:
        raise ValueError("character and vector use different words")
    if char.f is None:
        raise ValueError("need concrete character values")
    roots = x.word.roots
    return _eval_terms(x.terms, {k: char.f[roots[k - 1]] for k in theta.indices})


def char_well_defined(alg: UAlgebra, word: ReducedWord, theta, f=None) -> bool:
    """Whether E_{beta_k} -> f_k (k in theta), 0 otherwise, is a character.

    theta is a set of 1-based positions, not required to be admissible.
    f maps positions to nonzero values; None keeps the values as free
    parameters and decides the identity symbolically, which is the
    right notion for the all-nonzero-values dichotomy.
    """
    t = len(word.letters)
    S = set(theta)
    if any(not 1 <= k <= t for k in S):
        raise BadIndex("theta positions out of range")
    if f is not None:
        f = {k: f[k] for k in S}
        if any(v == ZERO for v in f.values()):
            raise ValueError("character values must be nonzero")
    for i, j in combinations(range(1, t + 1), 2):
        resid = _theta_residual(alg, word, i, j, S)
        holds = not resid if f is None else _eval_terms(resid, f) == ZERO
        if not holds:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial quotients


def _theta_cone(data: _PBWData, S, bound: int) -> list[Vec]:
    """Nonzero weights sum a_k beta_k (k in S) of height at most bound."""
    roots = [data.roots[k - 1] for k in sorted(S)]
    zero = tuple(0 for _ in range(len(data.roots[0]) if data.roots else 0))
    seen: set[Vec] = set()

    def rec(idx: int, cur: Vec) -> None:
        if idx == len(roots):
            if any(cur):
                seen.add(cur)
            return
        nxt = cur
        while sum(nxt) <= bound:
            rec(idx + 1, nxt)
            nxt = tuple(a + b for a, b in zip(nxt, roots[idx]))

    if roots:
        rec(0, zero)
    return sorted(seen, key=lambda mu: (sum(mu), mu))


def quotient_is_commutative_polynomial(alg: UAlgebra, word: ReducedWord, theta) -> bool:
    """Whether the quotient by the ideal I of the outside root vectors is
    a commutative polynomial ring on the classes of the theta ones.

    Two honest conditions.  The classes must commute: the theta-
    supported part of E_i E_j - E_j E_i must vanish, since everything
    else already sits inside the ideal.  The classes must stay free,
    and that needs no elimination.  Let T be the theta-supported PBW
    monomials and M the others, each of which has an outside factor.
    U_mu = span T_mu (+) span M_mu and M_mu lies in I_mu, so
    I_mu = span M_mu (+) (I_mu meet span T_mu): the theta monomials are
    free modulo I at mu exactly when I_mu = span M_mu.  Peeling the
    leftmost factor of a PBW monomial gives the recursion
    I_mu = sum_(m outside) E_m * U_(mu-beta_m) + sum_k E_k * I_(mu-beta_k),
    so by induction on height I_mu = span M_mu at every weight up to
    the bound exactly when every column E_k * E^a with k outside, or
    with E^a in M, lies in span M, i.e. has no theta-supported key.  A
    weight outside the theta cone has no theta monomial, so it needs no
    check.
    """
    t = len(word.letters)
    S = sorted(set(theta))
    if any(not 1 <= k <= t for k in S):
        raise BadIndex("theta positions out of range")
    data = pbw_data(alg, word)
    for i, j in combinations(S, 2):
        if _theta_residual(alg, word, i, j, S):
            return False
    for mu in _theta_cone(data, S, alg.nf.height_bound):
        for k in range(1, t + 1):
            sub = tuple(a - b for a, b in zip(mu, data.roots[k - 1]))
            if any(c < 0 for c in sub):
                continue
            for a in data.exponents_of_weight(sub):
                if k in S and _theta_supported(a, S):
                    continue
                if any(_theta_supported(b, S) for b in data.left_mult_column(k, a)):
                    return False
    return True


def enumerate_polynomial_ideals(alg: UAlgebra, word: ReducedWord) -> list[tuple[int, ...]]:
    """All index subsets whose quotient is a commutative polynomial
    ring, each decided algebraically; no shortcut through the Weyl
    group combinatorics, so the result can cross-check it."""
    t = len(word.letters)
    return [
        S
        for size in range(t + 1)
        for S in combinations(range(1, t + 1), size)
        if quotient_is_commutative_polynomial(alg, word, S)
    ]
