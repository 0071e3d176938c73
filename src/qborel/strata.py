"""Stratification data attached to a Weyl group element.

The input is a reduced word of w alone; w is its element.  The
inversion roots beta_1..beta_t carry a poset T^w of pairwise orthogonal
subsets Theta satisfying the length condition l(w_Theta) = l(w) - |Theta|.
These subsets index the character strata of the algebra attached to w;
kappa sends Theta to w_Theta and is an order reversing bijection onto
W^w.  Each ThetaSet is certified by one admissibility step from the set
one index smaller and carries its w_Theta, which kappa and the strata
read from there.  The classify entry point assembles the whole table,
together with the maximal admissible lattice of each stratum.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .coeffs import QRat, ZERO
from .errors import NotInWw, NotOrthogonal
from .record import Record
from .rootsys import LatticeSubgroup, Vec, bilinear, orthogonal_complement_lattice
from .weyl import ReducedWord, WeylElt, bruhat_le, canonical_word, reflection_of_root


class ThetaSet(Record):
    """An admissible orthogonal subset of the inversion roots of a word.

    indices are 1-based positions into word.roots, strictly increasing.
    A ThetaSet is a certificate of membership in T^w for w = word.element
    and carries the selected roots and its image y = w_Theta under
    kappa.  It is certified one index at a time by the admissibility step
    of ``extend``; construction folds that step over the indices, from the
    empty set, whose w_Theta is w.  Equality, hashing and ``repr`` use
    ``word`` and ``indices``.
    """

    __slots__ = ("word", "indices", "roots", "y")
    _fields = ("word", "indices")

    word: ReducedWord
    indices: tuple[int, ...]
    roots: tuple[Vec, ...]
    y: WeylElt

    def __init__(self, word: ReducedWord, indices: tuple[int, ...]):
        betas = word.roots
        if indices != tuple(sorted(set(indices))):
            raise ValueError("indices must be strictly increasing")
        if any(not 1 <= i <= len(betas) for i in indices):
            raise ValueError("index out of range for the word")
        th = _certified(word, (), (), word.element)
        for k in indices:
            th = th.extend(k)
        self._fill(word, indices, th.roots, th.y)

    def extend(self, k: int) -> "ThetaSet":
        """Theta + {k}, for an index k above every index of Theta.

        The admissibility step: beta_k is orthogonal to the roots of
        Theta, and s_{beta_k} lowers w_Theta by exactly one.  The
        reflections of an orthogonal set commute, so s_{beta_k} w_Theta is
        the new w_Theta.  A reflection changes the length by an odd amount
        and T^w is closed under subsets, so the steps over a set all hold
        exactly when l(w_Theta) = l(w) - |Theta| and Theta is orthogonal.
        Raises NotOrthogonal or ValueError; self is not checked again.
        """
        betas = self.word.roots
        if not (self.indices[-1] if self.indices else 0) < k <= len(betas):
            raise ValueError(f"index {k} is not above {self.indices} within the word")
        rs = self.word.rs
        beta = betas[k - 1]
        for other in self.roots:
            if bilinear(rs, other, beta) != 0:
                raise NotOrthogonal(f"roots {other} and {beta} are not orthogonal")
        y = reflection_of_root(rs, beta) * self.y
        indices = self.indices + (k,)
        if y.length != self.y.length - 1:
            raise ValueError(f"subset {indices} fails the length condition")
        return _certified(self.word, indices, self.roots + (beta,), y)

    def __len__(self) -> int:
        return len(self.indices)


_new = object.__new__


def _certified(word: ReducedWord, indices, roots, y: WeylElt) -> ThetaSet:
    """A ThetaSet whose certificate the caller has already checked."""
    th = _new(ThetaSet)
    th._fill(word, indices, roots, y)
    return th


def theta_set(word: ReducedWord, indices) -> ThetaSet:
    return ThetaSet(word, tuple(sorted(set(indices))))


def enumerate_Tw(word: ReducedWord) -> list[ThetaSet]:
    """All admissible subsets, smallest first.

    Grown breadth first: T^w is closed under subsets, so every member
    is another member extended by its largest index, and each member is
    certified once, by that one step from its parent.
    """
    t = len(word.roots)
    members = [ThetaSet(word, ())]
    pos = 0
    while pos < len(members):
        th = members[pos]
        pos += 1
        for k in range(th.indices[-1] + 1 if th.indices else 1, t + 1):
            try:
                members.append(th.extend(k))
            except (NotOrthogonal, ValueError):
                pass
    members.sort(key=lambda th: (len(th), th.indices))
    return members


def kappa(theta: ThetaSet) -> WeylElt:
    return theta.y


def kappa_inverse(word: ReducedWord, y: WeylElt) -> ThetaSet:
    """The unique Theta with w_Theta = y, if y lies in W^w."""
    for theta in enumerate_Tw(word):
        if theta.y == y:
            return theta
    raise NotInWw(f"element with word {canonical_word(y)} is not a w_Theta for this w")


class Stratum(Record):
    """One stratum of the character space: y = w_Theta and dim = |Theta|.

    No check is needed: T^w is closed under subsets, so each root of Theta
    lowers the length by one and w_Theta lies below w in Bruhat order.
    """

    __slots__ = _fields = ("theta",)

    theta: ThetaSet

    def __init__(self, theta: ThetaSet):
        self._fill(theta)

    @property
    def y(self) -> WeylElt:
        return self.theta.y

    @property
    def dim(self) -> int:
        return len(self.theta)


def enumerate_strata(word: ReducedWord) -> list[Stratum]:
    return [Stratum(th) for th in enumerate_Tw(word)]


class CharacterData(Record):
    """A character on a stratum.

    f maps every Theta root to a nonzero coefficient.  f = None keeps the
    values as free parameters; the concrete form is only needed by the
    algebraic checks downstream.  Compared and hashed by identity.
    """

    __slots__ = _fields = ("stratum", "f")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    stratum: Stratum
    f: Optional[Mapping[Vec, QRat]]

    def __init__(self, stratum: Stratum, f: Optional[Mapping[Vec, QRat]] = None):
        if f is not None:
            dom = set(f)
            if dom != set(stratum.theta.roots):
                raise ValueError("character domain must be exactly the Theta roots")
            for beta, val in f.items():
                if not isinstance(val, QRat) or val == ZERO:
                    raise ValueError(f"character value at {beta} must be a nonzero QRat")
            f = dict(f)
        self._fill(stratum, f)


def character(stratum: Stratum, f: Optional[Mapping[Vec, QRat]] = None) -> CharacterData:
    return CharacterData(stratum, f)


def max_admissible_lattice(char: CharacterData) -> LatticeSubgroup:
    th = char.stratum.theta
    return orthogonal_complement_lattice(th.word.rs, th.roots)


class CoidealTriple(Record):
    """A triple (w, phi, L); w is the word of the stratum phi lives on.
    Compared and hashed by identity."""

    __slots__ = _fields = ("char", "L")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    char: CharacterData
    L: LatticeSubgroup

    def __init__(self, char: CharacterData, L: LatticeSubgroup):
        self._fill(char, L)

    @property
    def word(self) -> ReducedWord:
        return self.char.stratum.theta.word


def validate_triple(t: CoidealTriple) -> bool:
    """Whether the triple indexes a coideal subalgebra.

    Checks the lattice condition L <= (supp)^perp.  Returns a bool
    instead of raising: invalid data is an expected query.
    """
    if t.L.n != t.word.rs.rank:
        return False
    return t.L.leq(max_admissible_lattice(t.char))


# ---------------------------------------------------------------------------
# the classification report


def _fmt_word(letters) -> str:
    """A TSV field: the letters joined by commas, "-" when there are none."""
    return ",".join(str(i) for i in letters) or "-"


def _fmt_vecs(vs) -> str:
    """A TSV field: each vector as (c1,...,cn), joined by ";", "-" when there are none."""
    return ";".join("(" + ",".join(str(c) for c in v) + ")" for v in vs) or "-"


class ReportRow(Record):
    __slots__ = _fields = ("y_word", "theta_roots", "dim", "Lmax_basis")

    y_word: tuple[int, ...]
    theta_roots: tuple[Vec, ...]
    dim: int
    Lmax_basis: tuple[Vec, ...]

    def __init__(self, y_word, theta_roots, dim, Lmax_basis):
        self._fill(y_word, theta_roots, dim, Lmax_basis)


class ClassificationReport(Record):
    """The classification table for one w.

    rows are ordered by (dim, theta_roots) so the table is identical for
    every reduced word of w.  bruhat lists index pairs [i, j] meaning
    rows[i].y < rows[j].y strictly in Bruhat order.  Compared and hashed
    by identity.
    """

    __slots__ = _fields = ("type_label", "word", "rows", "bruhat", "totals")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    type_label: str
    word: tuple[int, ...]
    rows: tuple[ReportRow, ...]
    bruhat: tuple[tuple[int, int], ...]
    totals: Mapping[str, int]

    def __init__(self, type_label, word, rows, bruhat, totals):
        self._fill(type_label, word, rows, bruhat, totals)

    def to_json_obj(self) -> dict:
        return {
            "type": self.type_label,
            "word": list(self.word),
            "rows": [
                {
                    "y_word": list(r.y_word),
                    "theta_roots": [list(v) for v in r.theta_roots],
                    "dim": r.dim,
                    "Lmax_basis": [list(v) for v in r.Lmax_basis],
                }
                for r in self.rows
            ],
            "totals": dict(self.totals),
            "bruhat": [list(p) for p in self.bruhat],
        }

    def to_tsv(self) -> str:
        lines = [f"# type {self.type_label}\tword {_fmt_word(self.word)}"]
        lines.append("y_word\ttheta_roots\tdim\tLmax_basis")
        for r in self.rows:
            lines.append(
                f"{_fmt_word(r.y_word)}\t{_fmt_vecs(r.theta_roots)}\t{r.dim}"
                f"\t{_fmt_vecs(r.Lmax_basis)}"
            )
        pairs = " ".join(f"{i}<{j}" for i, j in self.bruhat) or "-"
        lines.append(f"# bruhat: {pairs}")
        lines.append(
            "# totals: |T^w|={T_w} |W^w|={W_w}".format(**dict(self.totals))
        )
        return "\n".join(lines) + "\n"


def classify(word: ReducedWord, label: str = "custom") -> ClassificationReport:
    strata = enumerate_strata(word)
    decorated = []
    for st in strata:
        lmax = max_admissible_lattice(character(st))
        decorated.append(
            ReportRow(
                y_word=canonical_word(st.y),
                theta_roots=st.theta.roots,
                dim=st.dim,
                Lmax_basis=lmax.basis,
            )
        )
    order = sorted(range(len(decorated)), key=lambda i: (decorated[i].dim, decorated[i].theta_roots))
    rows = tuple(decorated[i] for i in order)
    ys = [strata[i].y for i in order]
    pairs = []
    for i in range(len(ys)):
        for j in range(len(ys)):
            if i != j and ys[i] != ys[j] and bruhat_le(ys[i], ys[j]):
                pairs.append((i, j))
    totals = {"T_w": len(rows), "W_w": len(set(ys))}
    return ClassificationReport(
        type_label=label,
        word=word.letters,
        rows=rows,
        bruhat=tuple(pairs),
        totals=totals,
    )
