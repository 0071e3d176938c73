"""Weyl group elements, reduced words, Bruhat order and reflection chains.

An element w is stored by its orbit vector w(2 rho), an integer vector in
simple root coordinates.  The vector 2 rho is regular: (alpha_i, 2 rho) =
(alpha_i, alpha_i) > 0 for every i, so no reflection fixes it, its
stabilizer in W is trivial, and w -> w(2 rho) is injective.  Equality and
hashing use that vector alone.  Letters of words are 1-based simple root
indices.

These operations are O(n) on the vector (Casselman, Machine calculations
in Weyl groups, Invent. Math. 116, 1994):

* left multiplication by a reflection, s_beta w(2 rho) = v - <v, beta^vee> beta,
  which is ``rootsys.reflect``;
* the left descent test: i is a left descent exactly when
  (alpha_i, v) = (w^{-1}(alpha_i), 2 rho) is negative;
* one step of a descent walk (canonical_word, all_reduced_words,
  bruhat_le), which updates the pairings (alpha_i, v) directly.

Each element is one WeylElt object per root system, made on first use,
so products land on existing objects again and again.  An element carries
its own data: the pairings and the length #{beta > 0 : (beta, v) < 0},
filled when it is made, the canonical word and the inversion set, filled
on first use, and the products s_beta * w with a reflection on the left,
kept on w under beta as they are formed.  ``act``, ``act_inv`` and a
product whose left factor is not a reflection walk the canonical word one
simple reflection at a time.

Nothing is cached at module level.  The RootSystem keeps the coroot row of
every root, the list of group elements and ``_weyl_table``: each element
used so far, keyed by its orbit vector, and the element s_beta of each
root used so far, keyed by ("s", beta) so that it cannot meet an orbit
vector (in A1 the orbit vectors are the roots themselves).  A ReducedWord
computes its element and its roots once, when it is built.

The module also implements the two pieces of chain surgery used by the
classification combinatorics: a three-reflection rewriting step and the
normalization that moves a non-orthogonal pair of reflections to the front
of a length-reducing chain.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    BadIndex,
    InternalContradiction,
    InvalidChain,
    NoNonorthogonalPair,
    NotReduced,
)
from .record import Record
from .rootsys import RootSystem, Vec, bilinear, reflect, vec_neg

__all__ = [
    "WeylElt",
    "ReducedWord",
    "identity",
    "simple_reflection",
    "from_word",
    "reflection_of_root",
    "inversion_set",
    "bruhat_le",
    "weyl_bruhat_equiv",
    "canonical_word",
    "all_reduced_words",
    "weyl_group",
    "lemma12_step",
    "normalize_reflection_sequence",
]


def _walk(rs: RootSystem, letters, v):
    """s_{l_k} ... s_{l_1}(v): s_{l_1} first, then s_{l_2}, and so on.

    s_i v = v - <v, alpha_i^vee> alpha_i changes only coordinate i, by the
    dot product of v with row i of the Cartan matrix.
    """
    cartan = rs.cartan
    v = list(v)
    for i in letters:
        v[i - 1] -= sum(map(mul, cartan[i - 1], v))
    return tuple(v)


def _descend(rs: RootSystem, p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The pairings (alpha_j, s_i v) from p = ((alpha_j, v))_j, i 0-based.

    <v, alpha_i^vee> = p_i / d_i, as (alpha_i, alpha_i) = 2 d_i.
    """
    k = p[i] // rs.d[i]
    return tuple([x - k * g for x, g in zip(p, rs.gram[i])])


class WeylElt(Record):
    """Group element w, stored by its orbit vector ``vec`` = w(2 rho).

    There is one object per element and root system: ``WeylElt(rs, vec)``
    returns the element that ``rs._weyl_table`` holds under ``vec``, and
    makes and stores it on first use; a vector that the table does not hold
    and that is not in the W-orbit of 2 rho raises ValueError, and nothing
    is stored.  Equality and hashing use ``vec`` alone, so elements of two
    equal root systems compare equal.

    ``root`` is set to beta once the element has been asked for as the
    reflection s_beta; it takes no part in equality.  With it, a product
    s_beta * x is one O(n) reflection of x's vector, kept on x under beta.
    The slots ``_pairings`` ((alpha_i, vec) for each i, negative exactly at
    the left descents) and ``length`` (the number of positive roots beta
    with (beta, vec) < 0) are filled when the element is made; the
    canonical word and the inversion set on first use.  The fields are
    read-only.
    """

    __slots__ = (
        "rs",
        "vec",
        "root",
        "_pairings",
        "length",
        "_canonical",
        "_inversions",
        "_products",
    )

    rs: RootSystem
    vec: Vec
    root: Vec | None
    _pairings: tuple[int, ...]
    length: int
    _canonical: tuple[int, ...] | None
    _inversions: tuple[Vec, ...] | None
    _products: dict | None

    def __new__(cls, rs: RootSystem, vec: Vec) -> "WeylElt":
        w = rs._weyl_table.get(vec)
        if w is None:
            if not _in_orbit(rs, vec):
                raise ValueError(f"{vec} is not in the W-orbit of 2 rho")
            w = _interned(rs, vec)
        return w

    def __eq__(self, other) -> bool:
        if other.__class__ is not WeylElt:
            return NotImplemented
        return self is other or self.vec == other.vec

    def __hash__(self) -> int:
        return hash(self.vec)

    def act(self, v):
        """w(v) for a vector in simple root coordinates: the canonical word
        s_{i_1} ... s_{i_t}, applied from its last letter."""
        return _walk(self.rs, reversed(self._word), v)

    def act_inv(self, v):
        """w^{-1}(v): the canonical word applied from its first letter."""
        return _walk(self.rs, self._word, v)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        """(u v)(2 rho) = u(v(2 rho)): one reflection if u is s_beta, kept
        on v under beta, else u.act."""
        rs = self.rs
        if rs is not other.rs:
            if rs != other.rs:
                raise ValueError("elements of different Weyl groups")
            other = _interned(rs, other.vec)
        root = self.root
        if root is None:
            return _interned(rs, self.act(other.vec))
        products = other._products
        if products is None:
            products = {}
            other._set("_products", products)
        else:
            w = products.get(root)
            if w is not None:
                return w
        w = products[root] = _interned(rs, reflect(rs, root, other.vec))
        return w

    def inverse(self) -> "WeylElt":
        return _interned(self.rs, self.act_inv(self.rs.two_rho))

    @property
    def _word(self) -> tuple[int, ...]:
        """The smallest left descent i, then the canonical word of s_i w."""
        word = self._canonical
        if word is None:
            rs = self.rs
            p = self._pairings
            letters = []
            while True:
                i = next((i for i, x in enumerate(p) if x < 0), None)
                if i is None:
                    break
                letters.append(i + 1)
                p = _descend(rs, p, i)
            word = tuple(letters)
            self._set("_canonical", word)
        return word

    @property
    def is_identity(self) -> bool:
        return self.vec == self.rs.two_rho

    def left_descents(self) -> list[int]:
        """Simple indices i with length(s_i * w) < length(w), ascending.

        i is a left descent exactly when w^{-1}(alpha_i) is a negative root,
        that is when (alpha_i, vec) < 0.
        """
        return [i + 1 for i, x in enumerate(self._pairings) if x < 0]

    def __repr__(self) -> str:
        if self.is_identity:
            return "WeylElt(e)"
        return "WeylElt(" + "".join(f"s{i}" for i in self._word) + ")"


_new = object.__new__


def _interned(rs: RootSystem, vec: Vec) -> WeylElt:
    """The element of an orbit vector of 2 rho, made and kept in the table
    on first use.  The caller vouches for the vector: products and words
    come here directly, and only the public constructor checks the orbit."""
    table = rs._weyl_table
    w = table.get(vec)
    if w is None:
        w = table[vec] = _weyl_elt(rs, vec)
    return w


def _in_orbit(rs: RootSystem, vec: Vec) -> bool:
    """Whether vec lies in the W-orbit of 2 rho.

    Each step applies a simple reflection s_i with <v, alpha_i^vee> < 0,
    which raises (v, 2 rho); the orbit is finite, so the walk ends in the
    dominant chamber, whose one orbit vector is 2 rho itself.
    """
    if len(vec) != rs.rank:
        return False
    v = list(vec)
    while True:
        for i, row in enumerate(rs.cartan):
            k = sum(map(mul, row, v))
            if k < 0:
                v[i] -= k
                break
        else:
            return tuple(v) == rs.two_rho


def _weyl_elt(rs: RootSystem, vec: Vec) -> WeylElt:
    # the one constructor, called by _interned for a vector the table does
    # not hold yet.  (beta, vec) is sum_j beta_j (alpha_j, vec), and
    # (beta, w(2 rho)) = (w^{-1}(beta), 2 rho) is negative exactly when
    # w^{-1} sends beta to a negative root.
    p = tuple([sum(map(mul, row, vec)) for row in rs.gram])
    length = sum([sum(map(mul, beta, p)) < 0 for beta in rs.pos_roots])
    w = _new(WeylElt)
    w._fill(rs, vec, None, p, length, None, None, None)
    return w


def identity(rs: RootSystem) -> WeylElt:
    return _interned(rs, rs.two_rho)


def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    if not 1 <= i <= rs.rank:
        raise BadIndex(f"simple index {i} is not in 1..{rs.rank}")
    return reflection_of_root(rs, rs.simple(i))


def from_word(rs: RootSystem, letters) -> WeylElt:
    w = identity(rs)
    for i in reversed(tuple(letters)):
        w = simple_reflection(rs, i) * w
    return w


def reflection_of_root(rs: RootSystem, beta: Vec) -> WeylElt:
    """The reflection in the hyperplane of a (positive or negative) root;
    ValueError if beta is not a root.  Built once per root and kept in the
    root system's table."""
    key = ("s", beta)
    t = rs._weyl_table.get(key)
    if t is None:
        t = rs._weyl_table[key] = _interned(rs, reflect(rs, beta, rs.two_rho))
        if t.root is None:
            t._set("root", beta)
    return t


# ---------------------------------------------------------------------------
# reduced words


class ReducedWord(Record):
    """A reduced word, validated at construction.

    ``roots`` are the beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}), each
    a walk of the prefix from alpha_{i_k}, and ``element`` is the product
    s_{i_1} ... s_{i_t}, read off the roots: the prefix s_{i_1} ...
    s_{i_{k-1}} sends 2 rho - s_{i_k}(2 rho) = 2 alpha_{i_k} to 2 beta_k, so
    the telescoping sum gives w(2 rho) = 2 rho - 2 (beta_1 + ... + beta_t).
    A word that is not reduced raises NotReduced.  Equality, hashing and
    ``repr`` use ``rs`` and ``letters``.
    """

    __slots__ = ("rs", "letters", "element", "roots")
    _fields = ("rs", "letters")

    rs: RootSystem
    letters: tuple[int, ...]
    element: WeylElt
    roots: tuple[Vec, ...]

    def __init__(self, rs: RootSystem, letters: tuple[int, ...]):
        for i in letters:
            if not 1 <= i <= rs.rank:
                raise NotReduced(f"letter {i} out of range")
        roots = []
        vec = rs.two_rho
        for k, i in enumerate(letters):
            beta = _walk(rs, reversed(letters[:k]), rs.simple(i))
            roots.append(beta)
            vec = tuple(x - 2 * b for x, b in zip(vec, beta))
        element = _interned(rs, vec)
        if element.length != len(letters):
            raise NotReduced(f"word {letters} is not reduced")
        self._fill(rs, letters, element, tuple(roots))

    def __len__(self) -> int:
        return len(self.letters)


def inversion_set(w: WeylElt) -> tuple[Vec, ...]:
    """Positive roots made negative by w^{-1}, in canonical root order.

    They are the beta > 0 with (beta, w(2 rho)) < 0.  Computed once per
    element and kept on it.
    """
    inv = w._inversions
    if inv is None:
        p = w._pairings
        inv = tuple([beta for beta in w.rs.pos_roots if sum(map(mul, beta, p)) < 0])
        w._set("_inversions", inv)
    return inv


def canonical_word(w: WeylElt) -> tuple[int, ...]:
    """Lexicographically smallest reduced word (greedy smallest descent).

    Computed once per element and kept on it.
    """
    return w._word


def all_reduced_words(w: WeylElt) -> list[tuple[int, ...]]:
    """Every reduced word of w, in lexicographic order.

    A reduced word is a left descent i followed by a reduced word of
    s_i w; the walk runs on the pairings (alpha_j, w(2 rho)).
    """
    rs = w.rs

    def words(p: tuple[int, ...]) -> list[tuple[int, ...]]:
        descents = [i for i, x in enumerate(p) if x < 0]
        if not descents:
            return [()]
        return [(i + 1,) + t for i in descents for t in words(_descend(rs, p, i))]

    return words(w._pairings)


def weyl_group(rs: RootSystem) -> tuple[WeylElt, ...]:
    """All group elements, sorted by (length, canonical word).

    Enumerated on the orbit of 2 rho under the simple reflections, so no
    product is formed and none is kept on the elements.  Built on the first
    call and kept on the root system.
    """
    if rs._weyl_group is not None:
        return rs._weyl_group
    letters = [(i,) for i in range(1, rs.rank + 1)]
    seen = {rs.two_rho}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for s in letters:
            nxt = _walk(rs, s, v)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    elements = (_interned(rs, v) for v in seen)
    group = tuple(sorted(elements, key=lambda w: (w.length, canonical_word(w))))
    rs._set("_weyl_group", group)
    return group


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_le(u: WeylElt, v: WeylElt) -> bool:
    """Bruhat order via the lifting property.

    Walk down a reduced word of v from the left, the canonical word that v
    keeps; at each letter follow u downward when the letter is a left
    descent of u as well (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    Prop. 2.2.7).  u walks on its pairings (alpha_i, u(2 rho)), and each of
    its steps lowers its length by exactly one.
    """
    rs = u.rs
    if rs is not v.rs and rs != v.rs:
        raise ValueError("elements of different Weyl groups")
    lu = u.length
    pu = u._pairings
    word = v._word
    for step, i in enumerate(word):
        if not lu:
            return True
        if lu > len(word) - step:
            return False
        if pu[i - 1] < 0:
            pu = _descend(rs, pu, i - 1)
            lu -= 1
    return not lu


def weyl_bruhat_equiv(u: WeylElt, beta: Vec) -> tuple[bool, bool, bool]:
    """Three equivalent descent tests for a positive root beta.

    Returns the truth values of
      (1) length(s_beta * u) < length(u),
      (2) u^{-1}(beta) is a negative root,
      (3) (beta, u(rho)) < 0, evaluated on the integer vector 2 rho.
    The three agree for every u and every positive root; tests enforce it.
    """
    rs = u.rs
    if beta not in rs.pos_root_set:
        raise ValueError(f"{beta} is not a positive root")
    c1 = (reflection_of_root(rs, beta) * u).length < u.length
    c2 = all(x <= 0 for x in u.act_inv(beta))
    c3 = bilinear(rs, beta, u.act(rs.two_rho)) < 0
    return c1, c2, c3


# ---------------------------------------------------------------------------
# chain surgery


def _as_positive_root(rs: RootSystem, v: Vec) -> Vec:
    if v in rs.pos_root_set:
        return v
    w = vec_neg(v)
    if w in rs.pos_root_set:
        return w
    raise InternalContradiction(f"{v} is not plus or minus a positive root")


def validate_chain(w: WeylElt, betas) -> None:
    """Check that each reflection drops the length by exactly one."""
    x = w
    for k, beta in enumerate(betas):
        if beta not in w.rs.pos_root_set:
            raise InvalidChain(f"entry {k + 1} is not a positive root: {beta}")
        y = reflection_of_root(w.rs, beta) * x
        if y.length != x.length - 1:
            raise InvalidChain(
                f"length does not drop by one at position {k + 1} "
                f"({x.length} -> {y.length})"
            )
        x = y


def lemma12_step(w: WeylElt, alpha: Vec, beta: Vec, gamma: Vec) -> tuple[Vec, Vec, Vec]:
    """Rewrite s_alpha s_beta s_gamma w so the last two reflections clash.

    Input: positive roots with (beta, gamma) = 0, at least one of
    (alpha, beta), (alpha, gamma) nonzero, and the chain
    length(s_a s_b s_g w) = length(s_b s_g w) - 1 = length(s_g w) - 2
    = length(w) - 3.  Output roots (a', b', g') satisfy the same chain
    condition, the same product, and (b', g') != 0.
    """
    rs = w.rs
    if bilinear(rs, beta, gamma) != 0:
        raise InvalidChain("middle and last reflections must be orthogonal")
    validate_chain(w, (gamma, beta, alpha))
    ab = bilinear(rs, alpha, beta)
    ag = bilinear(rs, alpha, gamma)
    if ab == 0 and ag == 0:
        raise NoNonorthogonalPair("alpha is orthogonal to both beta and gamma")

    def product(a: Vec, b: Vec, g: Vec) -> WeylElt:
        # grouped from the right, so each product has a reflection on the left
        return reflection_of_root(rs, a) * (reflection_of_root(rs, b) * reflection_of_root(rs, g))

    lhs = product(alpha, beta, gamma)

    def valid(a2: Vec, b2: Vec, g2: Vec) -> tuple[Vec, Vec, Vec] | None:
        a2 = _as_positive_root(rs, a2)
        b2 = _as_positive_root(rs, b2)
        g2 = _as_positive_root(rs, g2)
        if bilinear(rs, b2, g2) == 0:
            return None
        if product(a2, b2, g2) != lhs:
            return None
        try:
            validate_chain(w, (g2, b2, a2))
        except InvalidChain:
            return None
        return a2, b2, g2

    # Candidate rewrites in a fixed order: commuting moves first, then the
    # reflected-pair moves for the given ordering, then the same moves after
    # exchanging the two commuting reflections.  A reflected root can come
    # out negative, in which case that candidate fails its length check and
    # the exchanged ordering takes over; at least one candidate always
    # validates for inputs meeting the preconditions.
    candidates: list[tuple[Vec, Vec, Vec]] = []
    if ab == 0:
        candidates.append((beta, alpha, gamma))
    elif ag == 0:
        candidates.append((gamma, alpha, beta))
    else:
        aa = bilinear(rs, alpha, alpha)
        candidates.append((reflect(rs, alpha, beta), alpha, gamma))
        if aa == bilinear(rs, beta, beta):
            candidates.append((beta, reflect(rs, beta, alpha), gamma))
        candidates.append((reflect(rs, alpha, gamma), alpha, beta))
        if aa == bilinear(rs, gamma, gamma):
            candidates.append((gamma, reflect(rs, gamma, alpha), beta))
    for cand in candidates:
        out = valid(*cand)
        if out is not None:
            return out
    raise InternalContradiction("no admissible rewrite for a valid input chain")


def normalize_reflection_sequence(w: WeylElt, betas) -> tuple[Vec, ...]:
    """Move a non-orthogonal pair of reflections to the front of a chain.

    ``betas`` is applied first-to-last: the chain is
    w, s_{b1} w, s_{b2} s_{b1} w, ... with every step dropping the length
    by one.  Returns a sequence with the same product and chain property
    whose first two entries are non-orthogonal.
    """
    rs = w.rs
    seq = list(betas)
    validate_chain(w, seq)
    m = len(seq)
    if all(
        bilinear(rs, seq[i], seq[j]) == 0 for i in range(m) for j in range(i + 1, m)
    ):
        raise NoNonorthogonalPair("all reflections in the chain commute")

    budget = m * m + 8
    while True:
        budget -= 1
        if budget < 0:
            raise InternalContradiction("normalization did not terminate")
        jstar = None
        for j in range(1, m):
            if any(bilinear(rs, seq[i], seq[j]) != 0 for i in range(j)):
                jstar = j
                break
        if jstar is None:
            raise InternalContradiction("non-orthogonal pair vanished")
        if jstar == 1:
            out = tuple(seq)
            validate_chain(w, out)
            return out
        istar = max(i for i in range(jstar) if bilinear(rs, seq[i], seq[jstar]) != 0)
        # slide seq[istar] right through pairwise orthogonal neighbours
        for p in range(istar, jstar - 1):
            seq[p], seq[p + 1] = seq[p + 1], seq[p]
        prefix = w
        for b in seq[: jstar - 2]:
            prefix = reflection_of_root(rs, b) * prefix
        a2, b2, g2 = lemma12_step(prefix, seq[jstar], seq[jstar - 1], seq[jstar - 2])
        seq[jstar], seq[jstar - 1], seq[jstar - 2] = a2, b2, g2
