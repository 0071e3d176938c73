"""Weyl group elements, reduced words, Bruhat order and reflection chains.

Elements are stored as exact integer matrices acting on simple root
coordinates, together with the inverse matrix so that inversion sets and
length computations never need matrix inversion.  Letters of words are
1-based simple root indices.

Nothing is cached at module level.  The RootSystem keeps the reflection
matrix of every root, simple roots included, and the list of group
elements.  An element computes the heights of w^{-1}(alpha_j), which
give its left descents and its length, once, on first use, and keeps them.
A ReducedWord computes its element and its roots once, when it is built.

The module also implements the two pieces of chain surgery used by the
classification combinatorics: a three-reflection rewriting step and the
normalization that moves a non-orthogonal pair of reflections to the front
of a length-reducing chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import mul

from .errors import (
    BadIndex,
    InternalContradiction,
    InvalidChain,
    NoNonorthogonalPair,
    NotReduced,
)
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

Matrix = tuple[tuple[int, ...], ...]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _ident(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class WeylElt:
    """Group element as a pair of mutually inverse integer matrices.

    ``mat`` sends simple root coordinates of v to those of w(v); column j
    holds the image of the j-th simple root.  The heights of the roots
    w^{-1}(alpha_j) and the length are computed on first use and kept on
    the element.
    """

    rs: RootSystem
    mat: Matrix
    inv: Matrix

    def act(self, v):
        """Apply the element to a coordinate vector (ints or Fractions)."""
        return tuple(sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in self.mat)

    def act_inv(self, v):
        return tuple(sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in self.inv)

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        if self.rs is not other.rs and self.rs != other.rs:
            raise ValueError("elements of different Weyl groups")
        return WeylElt(self.rs, _matmul(self.mat, other.mat), _matmul(other.inv, self.inv))

    def inverse(self) -> "WeylElt":
        return WeylElt(self.rs, self.inv, self.mat)

    @cached_property
    def _heights(self) -> tuple[int, ...]:
        """ht(w^{-1}(alpha_j)) for each j: the column sums of ``inv``."""
        return tuple(map(sum, zip(*self.inv)))

    @property
    def is_identity(self) -> bool:
        return not any(h < 0 for h in self._heights)

    @cached_property
    def length(self) -> int:
        """Number of positive roots sent to negative roots by the inverse.

        A root is negative exactly when its height is, and the height of
        w^{-1}(beta) is sum_j beta_j ht(w^{-1}(alpha_j)).
        """
        hts = self._heights
        return sum(1 for beta in self.rs.pos_roots if sum(map(mul, beta, hts)) < 0)

    def left_descents(self) -> list[int]:
        """Simple indices i with length(s_i * w) < length(w), ascending.

        i is a left descent exactly when w^{-1}(alpha_i) is a negative root.
        """
        return [j + 1 for j, h in enumerate(self._heights) if h < 0]

    def __repr__(self) -> str:
        if self.is_identity:
            return "WeylElt(e)"
        return "WeylElt(" + "".join(f"s{i}" for i in canonical_word(self)) + ")"


def identity(rs: RootSystem) -> WeylElt:
    m = _ident(rs.rank)
    return WeylElt(rs, m, m)


def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    if not 1 <= i <= rs.rank:
        raise BadIndex(f"simple index {i} is not in 1..{rs.rank}")
    m = rs.root_reflections[rs.simple(i)]
    return WeylElt(rs, m, m)


def from_word(rs: RootSystem, letters) -> WeylElt:
    w = identity(rs)
    for i in letters:
        w = w * simple_reflection(rs, i)
    return w


def reflection_of_root(rs: RootSystem, beta: Vec) -> WeylElt:
    """The reflection in the hyperplane of a (positive or negative) root."""
    m = rs.root_reflections.get(beta)
    if m is None:
        raise ValueError(f"{beta} is not a root")
    return WeylElt(rs, m, m)


# ---------------------------------------------------------------------------
# reduced words


@dataclass(frozen=True)
class ReducedWord:
    """A reduced word, validated at construction.

    ``element`` is the product s_{i_1} ... s_{i_t} and ``roots`` are the
    beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}); both come from one pass
    over the letters.  A word that is not reduced raises NotReduced.
    """

    rs: RootSystem
    letters: tuple[int, ...]
    element: WeylElt = field(init=False, compare=False, repr=False)
    roots: tuple[Vec, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rs = self.rs
        prefix = identity(rs)
        roots = []
        for i in self.letters:
            if not 1 <= i <= rs.rank:
                raise NotReduced(f"letter {i} out of range")
            roots.append(prefix.act(rs.simple(i)))
            prefix = prefix * simple_reflection(rs, i)
        if prefix.length != len(self.letters):
            raise NotReduced(f"word {self.letters} is not reduced")
        object.__setattr__(self, "element", prefix)
        object.__setattr__(self, "roots", tuple(roots))

    def __len__(self) -> int:
        return len(self.letters)


def inversion_set(w: WeylElt) -> tuple[Vec, ...]:
    """Positive roots made negative by w^{-1}, in canonical root order."""
    out = []
    for beta in w.rs.pos_roots:
        if all(x <= 0 for x in w.act_inv(beta)):
            out.append(beta)
    return tuple(out)


def canonical_word(w: WeylElt) -> tuple[int, ...]:
    """Lexicographically smallest reduced word (greedy smallest descent)."""
    letters = []
    x = w
    while not x.is_identity:
        i = x.left_descents()[0]
        letters.append(i)
        x = simple_reflection(x.rs, i) * x
    return tuple(letters)


def all_reduced_words(w: WeylElt) -> list[tuple[int, ...]]:
    """Every reduced word of w, in lexicographic order."""
    if w.is_identity:
        return [()]
    out = []
    for i in w.left_descents():
        tail = all_reduced_words(simple_reflection(w.rs, i) * w)
        out.extend((i,) + t for t in tail)
    return out


def weyl_group(rs: RootSystem) -> tuple[WeylElt, ...]:
    """All group elements, sorted by (length, canonical word).

    Built on the first call and kept on the root system.
    """
    if rs._weyl_group is not None:
        return rs._weyl_group
    gens = [simple_reflection(rs, i) for i in range(1, rs.rank + 1)]
    seen = {identity(rs).mat: identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        w = frontier.pop()
        for s in gens:
            nxt = w * s
            if nxt.mat not in seen:
                seen[nxt.mat] = nxt
                frontier.append(nxt)
    group = tuple(sorted(seen.values(), key=lambda w: (w.length, canonical_word(w))))
    object.__setattr__(rs, "_weyl_group", group)
    return group


# ---------------------------------------------------------------------------
# Bruhat order


def bruhat_le(u: WeylElt, v: WeylElt) -> bool:
    """Bruhat order via the lifting property.

    Walk down a reduced word of v from the left; at each letter follow u
    downward when the letter is a left descent of u as well (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Prop. 2.2.7).
    """
    while True:
        if u.is_identity:
            return True
        if u.length > v.length:
            return False
        i = v.left_descents()[0]
        s = simple_reflection(v.rs, i)
        v = s * v
        if i in u.left_descents():
            u = s * u


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

    def valid(a2: Vec, b2: Vec, g2: Vec) -> tuple[Vec, Vec, Vec] | None:
        a2 = _as_positive_root(rs, a2)
        b2 = _as_positive_root(rs, b2)
        g2 = _as_positive_root(rs, g2)
        if bilinear(rs, b2, g2) == 0:
            return None
        lhs = (
            reflection_of_root(rs, alpha)
            * reflection_of_root(rs, beta)
            * reflection_of_root(rs, gamma)
        )
        rhs = (
            reflection_of_root(rs, a2)
            * reflection_of_root(rs, b2)
            * reflection_of_root(rs, g2)
        )
        if lhs.mat != rhs.mat:
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
