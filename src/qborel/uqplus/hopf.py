"""Coproduct on the nonnegative part, the psi twist, and coideal checks.

Tensors live in U^{>=0} (x) U^{>=0} with both legs kept in triangular
normal form, so equality of TensorElts is equality of term maps.
"""

from __future__ import annotations

from ..coeffs import QRat, ZERO, ONE
from ..errors import (
    HeightOverflow,
    InternalContradiction,
    InvalidTriple,
    NotInSubalgebra,
)
from ..rootsys import LatticeSubgroup, Vec, bilinear, vec_add, vec_sub
from ..strata import CharacterData, CoidealTriple, validate_triple
from .free import FreeElt, Word
from .full import UAlgebra, UElt
from .linalg import SpanSolver, TermMap, add_term
from .pbw import _PBWData, char_eval, pbw_data, pbw_expand

TKey = tuple[Vec, Word, Vec, Word]


class TensorElt(TermMap):
    __slots__ = ("alg",)

    def __init__(self, alg: UAlgebra, terms: dict):
        self.alg = alg
        super().__init__(terms)

    def _new(self, terms: dict) -> "TensorElt":
        return TensorElt(self.alg, terms)

    def _ctx(self) -> UAlgebra:
        return self.alg

    def __mul__(self, other: "TensorElt") -> "TensorElt":
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                for key, c in _tensor_term_product(self.alg, ka, kb).items():
                    add_term(out, key, c * ca * cb)
        return TensorElt(self.alg, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            k1, e1, k2, e2 = key
            left = UElt(self.alg, {((), k1, e1): self.terms[key]})
            right = UElt(self.alg, {((), k2, e2): ONE})
            bits.append(f"({left!r})(x)({right!r})")
        return " + ".join(bits)


def _tensor_term_product(alg: UAlgebra, a: TKey, b: TKey) -> dict:
    left = alg._term_times_term(((), a[0], a[1]), ((), b[0], b[1]))
    right = alg._term_times_term(((), a[2], a[3]), ((), b[2], b[3]))
    out: dict = {}
    for (f1, k1, e1), c1 in left.items():
        for (f2, k2, e2), c2 in right.items():
            add_term(out, (k1, e1, k2, e2), c1 * c2)
    return out


def _delta_word(alg: UAlgebra, w: Word) -> dict:
    """Coproduct of the monomial E_w with no K-shift, cached per word."""
    cache = alg._delta_cache
    hit = cache.get(w)
    if hit is not None:
        return hit
    zero = alg._zero_vec
    if not w:
        out = {(zero, (), zero, ()): ONE}
    else:
        i = w[-1]
        gen = {(zero, (i,), zero, ()): ONE, (alg.rs.simple(i), (), zero, (i,)): ONE}
        out = (TensorElt(alg, _delta_word(alg, w[:-1])) * TensorElt(alg, gen)).terms
    cache[w] = out
    return out


def coproduct(alg: UAlgebra, x: UElt) -> TensorElt:
    """Delta on U^{>=0}: K's are grouplike, E_i maps to E_i(x)1 + K_i(x)E_i."""
    if not x.in_nonneg():
        raise NotInSubalgebra("coproduct needs an element with no F-part")
    out: dict = {}
    for (fw, mu, ew), c in x.terms.items():
        for (k1, e1, k2, e2), d in _delta_word(alg, ew).items():
            add_term(out, (vec_add(k1, mu), e1, vec_add(k2, mu), e2), c * d)
    return TensorElt(alg, out)


def counit(alg: UAlgebra, x: UElt) -> QRat:
    if not x.in_nonneg():
        raise NotInSubalgebra("counit needs an element with no F-part")
    total = ZERO
    for (fw, mu, ew), c in x.terms.items():
        if not ew:
            total = total + c
    return total


def check_counit_law(alg: UAlgebra, x: UElt) -> bool:
    """(eps (x) id) Delta = id = (id (x) eps) Delta."""
    return _counit_law_holds(x, coproduct(alg, x))


def _counit_law_holds(x: UElt, t: TensorElt) -> bool:
    # the counit law for x, read off t = Delta(x)
    left: dict = {}
    right: dict = {}
    for (k1, e1, k2, e2), c in t.terms.items():
        if not e1:
            add_term(left, ((), k2, e2), c)
        if not e2:
            add_term(right, ((), k1, e1), c)
    return left == x.terms and right == x.terms


def check_coassociativity(alg: UAlgebra, x: UElt) -> bool:
    """(Delta (x) id) Delta = (id (x) Delta) Delta."""
    return _coassociative(alg, coproduct(alg, x))


def _coassociative(alg: UAlgebra, t: TensorElt) -> bool:
    # coassociativity, read off t = Delta(x)
    lhs: dict = {}
    rhs: dict = {}
    for (k1, e1, k2, e2), c in t.terms.items():
        for (ka, ea, kb, eb), d in _delta_word(alg, e1).items():
            add_term(lhs, (vec_add(ka, k1), ea, vec_add(kb, k1), eb, k2, e2), c * d)
        for (ka, ea, kb, eb), d in _delta_word(alg, e2).items():
            add_term(rhs, (k1, e1, vec_add(ka, k2), ea, vec_add(kb, k2), eb), c * d)
    return lhs == rhs


def check_graded_compatibility(alg: UAlgebra, x: UElt) -> bool:
    """For x in U+_alpha K_beta the coproduct splits along the grading:
    Delta(x) - x (x) K_beta lives in the strictly lower left E-weights,
    with every term shaped K_{beta+wt(e2)} E_{e1} (x) K_beta E_{e2}."""
    if x.is_zero():
        return True
    if not x.in_nonneg():
        raise NotInSubalgebra("graded compatibility is about U+ K_beta")
    kexps = {mu for (fw, mu, ew) in x.terms}
    weights = {alg._wt(ew) for (fw, mu, ew) in x.terms}
    if len(kexps) != 1 or len(weights) != 1:
        raise ValueError("need x homogeneous in U+_alpha K_beta")
    beta = next(iter(kexps))
    alpha = next(iter(weights))
    top: dict = {}
    for (k1, e1, k2, e2), c in coproduct(alg, x).terms.items():
        if k2 != beta:
            return False
        if vec_add(alg._wt(e1), alg._wt(e2)) != alpha:
            return False
        if k1 != vec_add(beta, alg._wt(e2)):
            return False
        if not e2:
            top[((), k1, e1)] = c
    return top == x.terms


def psi_apply(alg: UAlgebra, x) -> UElt:
    """The rescaling x_beta -> q^{-(beta,beta)/2} x_beta K_beta^{-1},
    term by term over the weight components of an element of U+."""
    if isinstance(x, FreeElt):
        x = alg.from_free(x)
    if not x.in_plus():
        raise NotInSubalgebra("psi is defined on U+")
    out: dict = {}
    for (fw, mu, ew), c in x.terms.items():
        beta = alg._wt(ew)
        norm = bilinear(alg.rs, beta, beta)
        # E_w K_{-beta} = q^{(beta,beta)} K_{-beta} E_w, so the exponent flips
        add_term(out, ((), tuple(-b for b in beta), ew), c.shift(norm // 2))
    return UElt(alg, out)


def _twist_rows(alg: UAlgebra, data: _PBWData) -> tuple:
    """The twist rows of a word, kept on its pbw._PBWData.

    For each root index i, one row per right key (k2, e2) of
    Delta(psi(E_{beta_i})): the key, the q-shift -(nu,nu)/2 that
    psi^{-1} contributes for nu = beta_i - wt(e2), and the PBW vector of
    the left leg.  None of it depends on the character.
    """
    rows = data._twist
    if rows is not None:
        return rows
    word = data.word
    rows = []
    for beta, x in zip(data.roots, data.free_vectors):
        grouped: dict = {}
        for (k1, e1, k2, e2), c in coproduct(alg, psi_apply(alg, x)).terms.items():
            if k1 != tuple(-b for b in alg._wt(e1)):
                raise InternalContradiction("left leg outside psi(U+)")
            grouped.setdefault((k2, e2), {})[e1] = c
        row = []
        for (k2, e2), left in grouped.items():
            nu = vec_sub(beta, alg._wt(e2))
            # keys store K_{-nu} E_w, so psi^{-1} contributes q^{-(nu,nu)/2}
            shift = -(bilinear(alg.rs, nu, nu) // 2)
            row.append((((), k2, e2), shift, pbw_expand(alg, word, FreeElt(left))))
        rows.append(tuple(row))
    data._twist = rows = tuple(rows)
    return rows


def twist_generators(alg: UAlgebra, char: CharacterData, L: LatticeSubgroup) -> list[UElt]:
    """Generators of the coideal subalgebra attached to (w, phi, L).

    w is the word of the stratum phi lives on.  Each
    g_i = (phi psi^{-1} (x) id) Delta(psi(E_{beta_i})); the lattice
    contributes the grouplikes K_gamma^{+-1} for a basis of L.  Only
    phi is evaluated here: the rest is the word's twist rows.
    """
    triple = CoidealTriple(char, L)
    if not validate_triple(triple):
        raise InvalidTriple("(w, char, L) fail the classification constraints")
    if char.f is None:
        raise ValueError("twisting needs concrete character values")
    gens: list[UElt] = []
    for row in _twist_rows(alg, pbw_data(alg, triple.word)):
        terms: dict = {}
        for key, shift, vec in row:
            val = char_eval(char, vec)
            if val != ZERO:
                terms[key] = val.shift(shift)
        gens.append(UElt(alg, terms))
    for row in L.basis:
        gens.append(alg.K(row))
        gens.append(alg.K(tuple(-b for b in row)))
    return gens


class _GeneratedSpan:
    """Span S_h of all products of the generators up to total E-height h,
    grown one height level at a time as its queries need.

    Grouplike generators are split off into a lattice L of K-exponents,
    and the span is a right module over their group algebra; the rest
    are kept as gens.  S_h is kept modulo L: as K_k E_e = q^{(lam, wt e)}
    K_r E_e K_lam for r = L.reduce(k), the canonical coset
    representative, and lam = k - r, a key (k, e) becomes (r, e) with
    its coefficient times q^{(lam, wt e)}.  Every K_L-shift of a vector
    reduces to the same vector, so one SpanSolver holds the reduced
    spanning products, and in_span asks it about the reduced query.

    The spanning products are the ordered products g_{j_1} ... g_{j_m},
    j_1 <= ... <= j_m, whose heights (at least 1 each) sum to at most h.
    Level b holds those of total height exactly b, each with its last
    index, and is built from the levels below it; S_b is the span of
    levels 0 to b.  in_span adds levels only while its query is outside
    the span, so an answer True may come from S_b with b < h, and an
    answer False is given only against S_h.  Both are the answers S_h
    gives: S_b lies in S_h.  An h above the algebra's height bound is
    refused here, before any level is built, so no order of queries
    decides whether it is.

    S_h lies in the subalgebra C the generators generate, so testing the
    gens alone against it is exact (see coideal_check).  The model is
    exact for a query in one K-degree when C is graded by the K-exponent,
    as it is when each generator lies in one K-degree.  Otherwise it can
    accept vectors outside the module (E_1 (1 - K_1) reduces to 0 modulo
    L = Z alpha_1), so a generator spread over several K-degrees next to
    grouplikes is refused.
    """

    def __init__(self, alg: UAlgebra, gens: list[UElt], h: int):
        self.alg = alg
        n = alg.rs.rank
        lat_rows: list[Vec] = []
        others: list[UElt] = []
        for g in gens:
            if g.is_zero():
                continue
            if not g.in_nonneg():
                raise NotInSubalgebra("coideal generators must lie in U^{>=0}")
            if len(g.terms) == 1:
                (fw, mu, ew), c = next(iter(g.terms.items()))
                if not ew:
                    if any(mu):
                        lat_rows.append(mu)
                    continue
            others.append(g)
        self.lat_rows = lat_rows
        self.gens = others
        self.L = LatticeSubgroup.from_generators(n, lat_rows)
        if self.L.rank and any(len({mu for (fw, mu, ew) in g.terms}) > 1 for g in others):
            raise ValueError("next to grouplikes, every generator must lie in one K-degree")

        heights = []
        for g in others:
            ht = max(len(ew) for (fw, mu, ew) in g.terms)
            if ht > h:
                raise HeightOverflow(f"generator of height {ht} exceeds bound {h}")
            heights.append(max(ht, 1))
        if others and h > alg.nf.height_bound:
            # fail fast, whatever levels the queries would reach
            raise HeightOverflow(f"span height {h} exceeds the algebra's bound {alg.nf.height_bound}")
        self._heights = heights
        self.h = h
        self._span = SpanSolver()
        # levels[b]: (last factor index, product) for each product of height b
        self._levels: list[list[tuple[int, UElt]]] = []
        self._add_level()

    @property
    def level(self) -> int:
        """The height b of the span S_b built so far."""
        return len(self._levels) - 1

    def _add_level(self) -> None:
        b = len(self._levels)
        if b == 0:
            level = [(0, self.alg.one())]
        else:
            level = []
            for j, (g, ht) in enumerate(zip(self.gens, self._heights)):
                if ht <= b:
                    level.extend((j, p * g) for last, p in self._levels[b - ht] if last <= j)
        for _, p in level:
            self._span.insert(self._reduced({(mu, ew): c for (fw, mu, ew), c in p.terms.items()}))
        self._levels.append(level)

    def _reduced(self, v: dict) -> dict:
        """v with every K-exponent reduced modulo L."""
        rs, wt, L = self.alg.rs, self.alg._wt, self.L
        out: dict = {}
        for (k, e), c in v.items():
            r = L.reduce(k)
            if r != k:
                c = c.shift(bilinear(rs, vec_sub(k, r), wt(e)))
            add_term(out, (r, e), c)
        return out

    def in_span(self, v: dict) -> bool:
        """Whether v lies in S_h; levels are added only while it is outside."""
        red = self._span.reduce(self._reduced(v))
        while red and self.level < self.h:
            self._add_level()
            red = self._span.reduce(red)
        return not red


def _generated_span(alg: UAlgebra, gens: list[UElt], h: int) -> _GeneratedSpan:
    """The span of gens up to height h, kept on the algebra for the
    generators it was last asked about."""
    key = (tuple(gens), h)
    hit = alg._span_cache.get(key)
    if hit is None:
        hit = _GeneratedSpan(alg, gens, h)
        alg._span_cache.clear()
        alg._span_cache[key] = hit
    return hit


def _kexp_parts_in_span(sp: _GeneratedSpan, x: UElt) -> bool:
    """Whether each K-degree component of a generator x lies in the span;
    x in a single K-degree passes, being in the span itself."""
    by_kexp: dict = {}
    for (fw, mu, ew), c in x.terms.items():
        by_kexp.setdefault(mu, {})[(mu, ew)] = c
    if len(by_kexp) < 2:
        return True
    return all(sp.in_span(by_kexp[mu]) for mu in sorted(by_kexp))


def coideal_check(alg: UAlgebra, gens: list[UElt], h: int) -> bool:
    """Desk-scale right-coideal test for the subalgebra C generated by gens.

    Grouplike generators define a lattice L of K-exponents; the rest
    span the products S_h up to total E-height h, kept modulo L (see
    _GeneratedSpan).  For each other generator g, the left tensor legs
    of Delta(g) under each right key must lie in S_h.  Delta is an
    algebra map and C (x) U^{>=0} is a subalgebra, so C is a right
    coideal exactly when Delta(g) lies in C (x) U^{>=0} for each g, and
    S_h lies in C, so a pass certifies C.  The span grows by height only
    as the legs need (see _GeneratedSpan): a leg found in S_b for b < h
    is in S_h, since S_b lies in S_h, so a pass at level b is the same
    certificate, and a leg is declared outside only once S_h is built,
    so a fail is still decided on S_h.  The legs under the right key
    K_mu are the K-degree mu part of g, so a pass also means C is graded
    by the K-exponent.  The legs under one right key lie in one K-degree,
    where the model modulo L is exact.  Grouplikes need no test: K_row
    is 1 modulo L, in the span.  Raises ValueError for a generator spread
    over several K-degrees next to grouplikes, where that model is not
    exact.
    """
    sp = _generated_span(alg, gens, h)
    for g in sp.gens:
        grouped: dict = {}
        for (k1, e1, k2, e2), c in coproduct(alg, g).terms.items():
            grouped.setdefault((k2, e2), {})[(k1, e1)] = c
        if not all(sp.in_span(left) for left in grouped.values()):
            return False
    return True


def span_is_Q_graded(alg: UAlgebra, gens: list[UElt], h: int) -> bool:
    """Whether the generated span decomposes along the K-exponent.

    A right coideal always splits as the direct sum of its pieces in
    U+ K_beta.  C is graded by the K-exponent exactly when the K-degree
    parts of each generator lie in C, as products of homogeneous
    elements are homogeneous; each part is tested against the height-h
    span, which lies in C, and which grows only as far as the parts need
    (a part found in S_b, b < h, is in S_h; a fail is decided on S_h).
    Tested apart from coideal_check to name the property on its own.
    """
    sp = _generated_span(alg, gens, h)
    return all(_kexp_parts_in_span(sp, g) for g in sp.gens)
