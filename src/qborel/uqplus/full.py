"""The whole quantized enveloping algebra, in triangular normal form.

Every element is a combination of terms F_word * K_mu * E_word with the
E and F words drawn from the per-weight complement bases of the Serre
ideal.  Multiplication straightens by the defining relations

    E_i F_j - F_j E_i = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1)
    K_mu E_j = q^(mu,alpha_j) E_j K_mu
    K_mu F_j = q^-(mu,alpha_j) F_j K_mu

and re-expands words over the complement bases, so equal elements have
equal term maps.

The Lusztig symmetries T_a and T_a^-1 act term by term, and each term's
image is built from the image of the term one factor shorter.  When the
argument lies in U^+ and its image is known to stay in U^+, only the
F-free terms of each E-word's image are built and kept, a letter a of
the word by the commutator [E_e, F_a] alone; every other argument takes
the full product in the whole algebra.
"""

from __future__ import annotations

from ..coeffs import QRat, ONE, qpow, q_factorial
from ..errors import BadIndex, NotReduced
from ..rootsys import RootSystem, Vec, bilinear, reflect, vec_add, vec_neg, vec_sub
from ..weyl import ReducedWord
from .free import FreeElt, NFContext, Word, word_weight
from .linalg import TermMap, add_scaled, add_term

# term key: (F-word, K-exponent, E-word)
Key = tuple[Word, Vec, Word]


class UElt(TermMap):
    __slots__ = ("alg",)

    def __init__(self, alg: "UAlgebra", terms: dict[Key, QRat]):
        self.alg = alg
        super().__init__(terms)

    def _new(self, terms: dict) -> "UElt":
        return UElt(self.alg, terms)

    def _ctx(self) -> "UAlgebra":
        return self.alg

    def __mul__(self, other: "UElt") -> "UElt":
        alg = self.alg
        out: dict[Key, QRat] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                add_scaled(out, alg._term_times_term(k1, k2), c1 * c2)
        return UElt(alg, out)

    def __pow__(self, k: int) -> "UElt":
        out = self.alg.one()
        for _ in range(k):
            out = out * self
        return out

    def in_plus(self) -> bool:
        return all(not f and all(c == 0 for c in k) for f, k, _ in self.terms)

    def in_nonneg(self) -> bool:
        return all(not f for f, _, _ in self.terms)

    def as_free(self) -> FreeElt:
        if not self.in_plus():
            raise ValueError("element has F or K parts")
        return FreeElt({e: c for (_, _, e), c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for f, k, e in sorted(self.terms):
            c = self.terms[(f, k, e)].render()
            bits = [f"F{i}" for i in f]
            if any(k):
                bits.append("K[" + ",".join(str(v) for v in k) + "]")
            bits.extend(f"E{i}" for i in e)
            parts.append(f"({c})*" + ("*".join(bits) if bits else "1"))
        return " + ".join(parts)


class UAlgebra:
    """Shared context: root system, height bound, straightening caches."""

    def __init__(self, rs: RootSystem, height_bound: int | None = None):
        self.rs = rs
        self.nf = NFContext(rs, height_bound)
        self._zero_vec = (0,) * rs.rank
        self._ef: dict = {}  # (E-word e, j) -> [E_e, F_j], keyed by (K-exponent, E-word)
        self._t_images: dict[tuple[int, bool, Key], UElt] = {}  # (a, inverse, term) -> its T_a-image
        # (a, inverse, E-word) -> the F-free terms of its T_a-image (lusztig_T's U^+ path)
        self._t_plus_images: dict[tuple[int, bool, Word], UElt] = {}
        self._root_vectors: dict[Word, tuple[UElt, ...]] = {}  # word letters -> its root vectors
        self._pbw: dict = {}  # word letters -> pbw._PBWData
        self._delta_cache: dict = {}  # E-word -> term map of its coproduct
        # (generators, height) -> hopf._GeneratedSpan, last one only; the span
        # grows by height as its queries need, so a kept span may stop below h
        self._span_cache: dict = {}

    # -- constructors ------------------------------------------------------

    def zero(self) -> UElt:
        return UElt(self, {})

    def one(self) -> UElt:
        return UElt(self, {((), self._zero_vec, ()): ONE})

    def E(self, i: int) -> UElt:
        self._check_index(i)
        return UElt(self, {((), self._zero_vec, (i,)): ONE})

    def F(self, i: int) -> UElt:
        self._check_index(i)
        return UElt(self, {((i,), self._zero_vec, ()): ONE})

    def K(self, mu: Vec) -> UElt:
        mu = tuple(mu)
        if len(mu) != self.rs.rank:
            raise BadIndex("K exponent has wrong rank")
        return UElt(self, {((), mu, ()): ONE})

    def qi(self, i: int) -> QRat:
        return qpow(self.rs.d[i - 1])

    def from_free(self, x: FreeElt) -> UElt:
        zero = self._zero_vec
        return UElt(self, {((), zero, w): c for w, c in self.nf.reduce(x).terms.items()})

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rs.rank:
            raise BadIndex(f"generator index {i} out of range")

    # -- straightening -----------------------------------------------------

    def _wt(self, w: Word) -> Vec:
        return word_weight(w, self.rs.rank)

    def _commutator_f(self, e: Word, j: int) -> dict[tuple[Vec, Word], QRat]:
        """The F-free commutator [E_e, F_j], keyed by (K-exponent, E-word):
        [E_h E_i, F_j] = [E_h, F_j] E_i + delta_ij E_h (K_i - K_i^-1)/(q_i - q_i^-1)."""
        cached = self._ef.get((e, j))
        if cached is not None:
            return cached
        out = {}
        if e:
            head, i = e[:-1], e[-1]
            for (k1, e1), c in self._commutator_f(head, j).items():
                for e2, c2 in self.nf.reduce_word(e1 + (i,)).items():
                    add_term(out, (k1, e2), c * c2)
            if i == j:
                hw = self._wt(head)
                ai = self.rs.simple(i)
                denom = (self.qi(i) - self.qi(i).inverse()).inverse()
                pos = qpow(-bilinear(self.rs, ai, hw)) * denom
                neg = -qpow(bilinear(self.rs, ai, hw)) * denom
                for e2, c2 in self.nf.reduce_word(head).items():
                    add_term(out, (ai, e2), pos * c2)
                    add_term(out, (vec_neg(ai), e2), neg * c2)
        self._ef[(e, j)] = out
        return out

    def _key_times_f(self, key: Key, j: int) -> dict[Key, QRat]:
        """F_f K_k E_e * F_j = q^-(k, alpha_j) F_(f j) K_k E_e + F_f K_k [E_e, F_j];
        the F- and E-words of a key are in normal form already."""
        f, k, e = key
        s = -bilinear(self.rs, k, self.rs.simple(j))
        out = {(f2, k, e): c.shift(s) for f2, c in self.nf.reduce_word(f + (j,)).items()}
        for (k1, e1), c in self._commutator_f(e, j).items():
            out[(f, vec_add(k, k1), e1)] = c
        return out

    def _key_times_ke(self, key: Key, mu: Vec, e2: Word) -> dict[Key, QRat]:
        """F_f K_k E_e * K_mu E_e2 = q^-(mu, wt e) F_f K_(k+mu) nf(e e2);
        the E-word e of a key is in normal form already."""
        f, k, e = key
        s = -bilinear(self.rs, mu, self._wt(e)) if any(mu) else 0
        kk = vec_add(k, mu)
        if not e2:
            return {(f, kk, e): ONE.shift(s)}
        return {(f, kk, w): c.shift(s) for w, c in self.nf._normal_form(e + e2).items()}

    def _term_times_term(self, k1: Key, k2: Key) -> dict[Key, QRat]:
        f2, mu2, e2 = k2
        if not f2:
            return self._key_times_ke(k1, mu2, e2)
        cur: dict[Key, QRat] = {k1: ONE}
        for j in f2:
            nxt: dict[Key, QRat] = {}
            for key, c in cur.items():
                add_scaled(nxt, self._key_times_f(key, j), c)
            cur = nxt
        out: dict[Key, QRat] = {}
        for key, c in cur.items():
            add_scaled(out, self._key_times_ke(key, mu2, e2), c)
        return out


# ---------------------------------------------------------------------------
# Lusztig symmetries


def _divided_power(gen: UElt, n: int, d: int) -> UElt:
    return (gen ** n).scale(q_factorial(n, d).inverse())


def _t_generator(alg: UAlgebra, a: int, kind: str, i: int, inverse: bool) -> UElt:
    zero = alg._zero_vec
    key = (a, inverse, ((), zero, (i,)) if kind == "E" else ((i,), zero, ()))
    cached = alg._t_images.get(key)
    if cached is not None:
        return cached
    rs = alg.rs
    gen, other, sign = (alg.E, alg.F, -1) if kind == "E" else (alg.F, alg.E, 1)
    # T_a on E mirrors T_a^-1 on F, and T_a^-1 on E mirrors T_a on F
    flip = (kind == "E") != inverse
    if i == a:
        alpha = rs.simple(a)
        if flip:
            out = (other(a) * alg.K(alpha)).scale(-ONE)
        else:
            out = (alg.K(vec_neg(alpha)) * other(a)).scale(-ONE)
    else:
        da = rs.d[a - 1]
        r = -rs.cartan[a - 1][i - 1]
        ga = gen(a)
        out = alg.zero()
        for s in range(r + 1):
            coef = qpow(sign * s * da)
            if s % 2:
                coef = -coef
            lo, hi = (r - s, s) if flip else (s, r - s)
            term = _divided_power(ga, lo, da) * gen(i) * _divided_power(ga, hi, da)
            out = out + term.scale(coef)
    alg._t_images[key] = out
    return out


def _t_image(alg: UAlgebra, a: int, key: Key, inverse: bool) -> UElt:
    """T_a (or its inverse) of the term F_f K_k E_e, kept on the algebra.

    The image is that of the term one factor shorter times the image of
    its last factor, so each call reuses every prefix an earlier call on
    the algebra has seen.  It is the full product in the whole algebra.
    """
    cached = alg._t_images.get((a, inverse, key))
    if cached is not None:
        return cached
    f, k, e = key
    zero = alg._zero_vec
    if e:
        head, last = (f, k, e[:-1]), _t_generator(alg, a, "E", e[-1], inverse)
    elif any(k):
        head, last = (f, zero, ()), alg.K(reflect(alg.rs, alg.rs.simple(a), k))
    elif f:
        head, last = (f[:-1], zero, ()), _t_generator(alg, a, "F", f[-1], inverse)
    else:
        return alg.one()
    img = last if head == ((), zero, ()) else _t_image(alg, a, head, inverse) * last
    alg._t_images[(a, inverse, key)] = img
    return img


def _t_plus_image(alg: UAlgebra, a: int, e: Word, inverse: bool) -> UElt:
    """The F-free terms of T_a (or its inverse) of E_e, kept on the algebra.

    They are the F-free terms of (those of the word one letter shorter)
    times the image of the last letter; lusztig_T says why that is exact.
    For a last letter i != a that image lies in U^+, so the product of
    two F-free factors is taken as it stands; for i = a it is
    _f_free_times_t_ea, which builds no F-term.
    """
    cached = alg._t_plus_images.get((a, inverse, e))
    if cached is not None:
        return cached
    if not e:
        return alg.one()
    if len(e) == 1:
        # T_a^{+-1}(E_a) is a multiple of F_a K_mu, with no F-free term
        img = alg.zero() if e[0] == a else _t_generator(alg, a, "E", e[0], inverse)
    elif e[-1] == a:
        img = _f_free_times_t_ea(alg, _t_plus_image(alg, a, e[:-1], inverse), a, inverse)
    else:
        img = _t_plus_image(alg, a, e[:-1], inverse) * _t_generator(alg, a, "E", e[-1], inverse)
    alg._t_plus_images[(a, inverse, e)] = img
    return img


def _f_free_times_t_ea(alg: UAlgebra, y: UElt, a: int, inverse: bool) -> UElt:
    """The F-free terms of y * T_a(E_a) (or T_a^-1(E_a)), for F-free y.

    That image is one term g F_a K_mu: -F_a K_a, or -K_a^-1 F_a =
    -q^(alpha_a, alpha_a) F_a K_a^-1.  For a term K_k E_e of y, E_e F_a =
    F_a E_e + [E_e, F_a], and the F-free commutator is the terms
    K_(+-alpha_a) E_e1 of the cached _commutator_f, with wt e1 = wt e -
    alpha_a; K_mu moves left past E_e1 as q^-(mu, wt e1).  So each term
    of y costs one shift, and the F-term F_a E_e is never written.
    """
    rs = alg.rs
    ((_, mu, _), g), = _t_generator(alg, a, "E", a, inverse).terms.items()
    out: dict[Key, QRat] = {}
    for (_, k, e), c in y.terms.items():
        cs = (c * g).shift(-bilinear(rs, mu, vec_sub(alg._wt(e), rs.simple(a))))
        kmu = vec_add(k, mu)
        for (k1, e1), c1 in alg._commutator_f(e, a).items():
            add_term(out, ((), vec_add(kmu, k1), e1), c1 * cs)
    return UElt(alg, out)


def _image_stays_in_plus(alg: UAlgebra, a: int, x: UElt, inverse: bool) -> bool:
    """Whether T_a(x) (or T_a^-1(x)) lies in U^+, for x in U^+; lusztig_T says how."""
    alpha = alg.rs.simple(a)
    mu = alpha if inverse else vec_neg(alpha)
    part: dict[Word, QRat] = {}
    for (_, _, e), c in x.terms.items():
        for (k1, e1), c1 in alg._commutator_f(e, a).items():
            if k1 == mu:
                add_term(part, e1, c * c1)
    return not part


def lusztig_T(alg: UAlgebra, a: int, x: UElt, inverse: bool = False) -> UElt:
    """The Lusztig symmetry T_a (or its inverse) applied to x.

    x is mapped term by term, and each term's image is kept on the
    algebra.  When x lies in U^+ and its image is known to stay in U^+,
    the result is the sum of the F-free terms of each E-word's image
    (_t_plus_image); any other x takes the full product of each term's
    image in the whole algebra (_t_image).  Two facts make the first
    path exact:

    - Projection.  For a nonempty F-word f, F_f y has only nonempty
      F-words in normal form, because F_f F_g has nonzero U^- weight.  So
      the F-free terms of x y are those of x' y, with x' the F-free terms
      of x, and the F-free terms of an E-word's image are built one letter
      at a time.  An image in U^+ is its own F-free part.
    - Membership test.  For x in U^+, the commutator [x, F_a] is
      K_a r(x) + K_a^-1 r'(x), read from the cached _commutator_f.  T_a(x)
      lies in U^+ exactly when the K_a^-1 part is zero, and T_a^-1(x)
      exactly when the K_a part is zero (Lusztig, Introduction to Quantum
      Groups, 38.1).

    The same table gives the letter a of an E-word: T_a^{+-1}(E_a) is a
    multiple of F_a K_(+-alpha_a), so the F-free terms of (prefix image)
    times it come from the commutator of each prefix term's E-word with
    F_a, moved past K_(+-alpha_a) by one shift (_f_free_times_t_ea), and no
    F-term is built.
    """
    alg._check_index(a)
    out: dict[Key, QRat] = {}
    if x.in_plus() and _image_stays_in_plus(alg, a, x, inverse):
        for (_, _, e), c in x.terms.items():
            add_scaled(out, _t_plus_image(alg, a, e, inverse).terms, c)
    else:
        for key, c in x.terms.items():
            add_scaled(out, _t_image(alg, a, key, inverse).terms, c)
    return UElt(alg, out)


def root_vectors(alg: UAlgebra, word: ReducedWord) -> list[UElt]:
    """The root vectors E_{beta_1}, ..., E_{beta_t} of a reduced word.

    E_{beta_k} = T_{i_1} ... T_{i_{k-1}}(E_{i_k}), built by the recursion
    E_{beta_1} = E_{i_1}, E_{beta_{k+1}} = T_{i_1}(E'_{beta_k}), where the
    E'_{beta_k} are the root vectors of the suffix word i_2 ... i_t.  The
    vectors of every suffix are kept on the algebra, keyed by its
    letters; each result lies in the positive part and is homogeneous of
    weight beta_k.
    """
    if word.rs is not alg.rs and word.rs != alg.rs:
        raise NotReduced("word belongs to a different root system")
    letters = word.letters
    cache = alg._root_vectors
    vectors: tuple[UElt, ...] = ()
    for start in range(len(letters) - 1, -1, -1):
        suffix = letters[start:]
        cached = cache.get(suffix)
        if cached is None:
            a = letters[start]
            cached = (alg.E(a),) + tuple(lusztig_T(alg, a, x) for x in vectors)
            cache[suffix] = cached
        vectors = cached
    return list(vectors)
