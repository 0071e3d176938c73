"""Finite root systems from Cartan data, plus integer lattice helpers.

Conventions used throughout the package:

* the Cartan matrix entry is a_ij = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
  rows indexed by the coroot;
* the symmetric form is B = diag(d) * A where the symmetrizers d_i are
  positive integers scaled so every irreducible component has min d = 1,
  which makes (alpha, alpha) = 2 for short roots;
* roots are integer coordinate vectors over the simple roots, stored as
  plain tuples;
* positive roots are sorted by height and then lexicographically, and this
  order is the canonical root index used everywhere else.

For the doubly laced and triply laced rank-2 types the first simple root is
the short one, so for "B2" we get (alpha_2, alpha_2) = 4 and for "G2" the
highest root is 3*alpha_1 + 2*alpha_2.

>>> rs = build_root_system("A2")
>>> rs.pos_roots
((0, 1), (1, 0), (1, 1))
>>> bilinear(rs, (1, 0), (0, 1))
-1
"""

from __future__ import annotations

import json
from math import gcd, lcm
from operator import add, mul, sub

from .errors import InvalidCartan, NotInPositiveCone
from .record import Record

__all__ = [
    "RootSystem",
    "build_root_system",
    "bilinear",
    "reflect",
    "height",
    "LatticeSubgroup",
    "orthogonal_complement_lattice",
    "vec_add",
    "vec_sub",
    "vec_neg",
]

Vec = tuple[int, ...]


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(map(add, a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(map(sub, a, b))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# Cartan matrices for the named types

# The largest rank a type string may name, refused before any matrix is
# built: `qborel roots` takes about 2 s and 20 MB on A64, 15 s on A120, and
# every other command stops at a far lower rank (|W(A_n)| = (n+1)!).
MAX_RANK = 64


def _chain(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def _named_cartan(name: str) -> list[list[int]]:
    kind, rank = name[:1].upper(), name[1:]
    if not (rank.isascii() and rank.isdigit()):
        raise InvalidCartan(f"cannot parse type string {name!r}")
    if len(rank.lstrip("0")) > len(str(MAX_RANK)) or int(rank) > MAX_RANK:
        raise InvalidCartan(f"type string {name!r}: rank above {MAX_RANK} is not supported")
    n = int(rank)
    if kind == "A" and n >= 1:
        return _chain(n)
    if kind == "B" and n >= 2:
        a = _chain(n)
        a[0][1] = -2  # first simple root short
        return a
    if kind == "C" and n >= 2:
        a = _chain(n)
        a[1][0] = -2  # first simple root long
        return a
    if kind == "D" and n >= 3:
        a = _chain(n - 1)
        for row in a:
            row.append(0)
        a.append([0] * n)
        a[n - 1][n - 1] = 2
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        return a
    if kind == "E" and n in (6, 7, 8):
        # chain 1-3-4-5-... with node 2 attached to node 4 (Bourbaki)
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, n)]
        for i, j in edges:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        return a
    if kind == "F" and n == 4:
        a = _chain(4)
        a[1][2] = -2
        a[2][1] = -1
        return a
    if kind == "G" and n == 2:
        return [[2, -3], [-1, 2]]
    raise InvalidCartan(f"unsupported type string {name!r}")


def _symmetrizers(a: list[list[int]]) -> tuple[int, ...]:
    """Positive integer d with d_i a_ij = d_j a_ji, min 1 per component.

    Each d_i is found as a reduced pair (numerator, denominator > 0) by a
    walk over the component from d = 1 at its first index; then every
    numerator is put over the common denominator of the component and
    divided by the smallest.
    """
    n = len(a)
    d: list[tuple[int, int] | None] = [None] * n
    comps: list[list[int]] = []
    for start in range(n):
        if d[start] is not None:
            continue
        comp = [start]
        d[start] = (1, 1)
        queue = [start]
        while queue:
            i = queue.pop()
            p, q = d[i]
            for j in range(n):
                if a[i][j] != 0 and i != j:
                    want = _reduced(p * a[i][j], q * a[j][i])
                    if d[j] is None:
                        d[j] = want
                        comp.append(j)
                        queue.append(j)
                    elif d[j] != want:
                        raise InvalidCartan("matrix is not symmetrizable")
        comps.append(comp)
    out = [0] * n
    for comp in comps:
        den = lcm(*(d[i][1] for i in comp))
        nums = {i: d[i][0] * (den // d[i][1]) for i in comp}
        scale = min(nums.values())
        for i in comp:
            if nums[i] % scale:
                raise InvalidCartan("matrix is not symmetrizable over the integers")
            out[i] = nums[i] // scale
    return tuple(out)


def _reduced(p: int, q: int) -> tuple[int, int]:
    # p/q in lowest terms with a positive denominator, for q != 0
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _leading_minors_positive(b: list[list[int]]) -> bool:
    """Whether every leading principal minor of b is positive, which for
    a symmetric b means positive definite (Sylvester's criterion).

    Bareiss fraction-free elimination: after step k - 1 the k-th pivot is
    the k-th leading minor, and every division by the previous pivot is
    exact (Sylvester's identity), so the entries stay integers.
    """
    n = len(b)
    m = [list(row) for row in b]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - f * m[k][j]) // prev
        prev = piv
    return True


class RootSystem(Record):
    """Immutable container for Cartan data and the positive roots.

    Equality and hashing use the four fields ``cartan``, ``d``, ``gram``
    and ``pos_roots``.  The data derived from them lives in slots of the
    root system, so it lives and dies with it: ``two_rho`` and
    ``pos_root_set``, filled at construction; ``_coroots``, the coroot row
    of every root, which ``coroots`` (and so ``reflect``) builds on first
    use; ``_weyl_group``, the element list that ``weyl.weyl_group`` fills
    on its first call; ``_kostant``, the partition counts that
    ``uqplus.free.kostant_dim`` keys by (root index, remaining weight) and
    fills as it is asked; and ``_weyl_table``, which ``weyl`` fills as
    elements are used: under an orbit vector w(2 rho), the one ``WeylElt``
    object of w, which carries its own data, and under ("s", beta), the
    element that ``weyl.reflection_of_root`` returns for the root beta.
    """

    __slots__ = (
        "cartan",
        "d",
        "gram",
        "pos_roots",
        "two_rho",
        "pos_root_set",
        "_coroots",
        "_weyl_group",
        "_kostant",
        "_weyl_table",
    )
    _fields = __slots__[:4]

    cartan: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    gram: tuple[tuple[int, ...], ...]
    pos_roots: tuple[Vec, ...]
    two_rho: Vec  # the sum of the positive roots, in simple root coordinates
    pos_root_set: frozenset[Vec]
    _coroots: dict[Vec, Vec] | None
    _weyl_group: tuple | None
    _kostant: dict[tuple[int, Vec], int]
    _weyl_table: dict

    def __init__(self, cartan, d, gram, pos_roots):
        two_rho = tuple(map(sum, zip(*pos_roots)))
        self._fill(cartan, d, gram, pos_roots, two_rho, frozenset(pos_roots), None, None, {}, {})

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def coroots(self) -> dict[Vec, Vec]:
        """The coroot row of every root +-beta, keyed by the root.

        <x, beta^vee> = 2 (beta, x) / (beta, beta) is the dot product of the
        row with x, and row_j = <alpha_j, beta^vee> is an integer; the row
        of -beta is minus the row of beta, and the row of alpha_i is row i
        of the Cartan matrix.  The reflection s_beta is
        x -> x - <x, beta^vee> beta.  Built on first use.
        """
        table = self._coroots
        if table is None:
            table = {}
            for beta in self.pos_roots:
                pair = [sum(map(mul, g, beta)) for g in self.gram]  # (alpha_j, beta)
                bb = sum(map(mul, beta, pair))
                row = tuple(2 * x // bb for x in pair)
                table[beta] = row
                table[vec_neg(beta)] = vec_neg(row)
            self._set("_coroots", table)
        return table

    @property
    def highest_height(self) -> int:
        return max(sum(b) for b in self.pos_roots)

    def simple(self, i: int) -> Vec:
        """Simple root number i (1-based)."""
        if not 1 <= i <= self.rank:
            raise NotInPositiveCone(f"no simple root with index {i}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def __repr__(self) -> str:
        return f"RootSystem(rank={self.rank}, positive_roots={len(self.pos_roots)})"


def _close_positive_roots(a: list[list[int]], n: int) -> tuple[Vec, ...]:
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found: set[Vec] = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            # s_i(beta) = beta - <pairing> alpha_i with the Cartan pairing
            coef = sum(a[i][j] * beta[j] for j in range(n))
            img = list(beta)
            img[i] -= coef
            v = tuple(img)
            if all(x >= 0 for x in v) and any(x > 0 for x in v) and v not in found:
                found.add(v)
                frontier.append(v)
    return tuple(sorted(found, key=lambda b: (sum(b), b)))


def _build_from_matrix(rows: tuple[tuple[int, ...], ...]) -> RootSystem:
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InvalidCartan("Cartan matrix must be square and non-empty")
    a = [list(r) for r in rows]
    for i in range(n):
        if a[i][i] != 2:
            raise InvalidCartan("diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if a[i][j] > 0:
                    raise InvalidCartan("off-diagonal entries must be <= 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvalidCartan("zero pattern must be symmetric")
    d = _symmetrizers(a)
    gram = tuple(tuple(d[i] * a[i][j] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise InvalidCartan("symmetrized matrix is not symmetric")
    if not _leading_minors_positive([list(r) for r in gram]):
        raise InvalidCartan("form is not positive definite (not finite type)")
    pos = _close_positive_roots(a, n)
    return RootSystem(cartan=rows, d=d, gram=gram, pos_roots=pos)


def build_root_system(spec) -> RootSystem:
    """Construct a root system from a type string or an explicit matrix.

    ``spec`` is either a name like "A2", "B3", "G2" or a square integer
    matrix (list or tuple of rows).  Raises InvalidCartan when the input is
    not a valid finite-type Cartan matrix, including any entry that is not
    an int (a float, a bool or a string).  Every call builds a new object,
    which owns its own derived caches.
    """
    if isinstance(spec, str):
        spec = _named_cartan(spec)
    if not isinstance(spec, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in spec):
        raise InvalidCartan("Cartan matrix must be a list of rows")
    for row in spec:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InvalidCartan(f"Cartan entry {x!r} is not an integer")
    return _build_from_matrix(tuple(tuple(r) for r in spec))


def load_cartan_file(path: str) -> RootSystem:
    """Read a JSON integer matrix from ``path`` and build the root system.

    An unreadable file, or one that is not a JSON list, raises InvalidCartan.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidCartan(f"cannot read Cartan file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidCartan(f"Cartan file {path!r} is not JSON: {exc}") from None
    if not isinstance(data, list):
        raise InvalidCartan(f"Cartan file {path!r} does not hold a JSON list of rows")
    return build_root_system(data)


# ---------------------------------------------------------------------------
# bilinear form and elementary root operations


def bilinear(rs: RootSystem, x, y):
    """(x, y) under the symmetrized form; exact, works on Fraction vectors.

    One dot product of y with row i of the Gram matrix per nonzero x_i.
    """
    total = 0
    for xi, row in zip(x, rs.gram):
        if xi:
            total += xi * sum(map(mul, row, y))
    return total


def reflect(rs: RootSystem, beta: Vec, x) -> Vec:
    """s_beta(x) = x - <x, beta^vee> beta, with the coroot row of beta read
    from ``rs.coroots``; ValueError if beta is not a root."""
    coroot = rs.coroots.get(beta)
    if coroot is None:
        raise ValueError(f"{beta} is not a root")
    k = sum(map(mul, coroot, x))
    return tuple([y - k * b for y, b in zip(x, beta)])


def height(rs: RootSystem, x: Vec) -> int:
    """Coordinate sum of a vector in the positive cone."""
    if any(c < 0 for c in x):
        raise NotInPositiveCone(f"{x} has a negative coordinate")
    return sum(x)


# ---------------------------------------------------------------------------
# integer lattices in the root lattice


def _hnf(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form with positive pivots, zero rows dropped."""
    if not rows:
        return ()
    m = [list(r) for r in rows]
    n = len(m[0])
    r = 0
    for col in range(n):
        # gather a single nonzero entry at row r in this column
        piv = None
        for i in range(r, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        while True:
            nz = [i for i in range(r + 1, len(m)) if m[i][col]]
            if not nz:
                break
            for i in nz:
                qt = m[i][col] // m[r][col]
                if qt:
                    for j in range(n):
                        m[i][j] -= qt * m[r][j]
                if m[i][col]:
                    m[r], m[i] = m[i], m[r]
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            qt = m[i][col] // m[r][col]
            if qt:
                for j in range(n):
                    m[i][j] -= qt * m[r][j]
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r] if any(row))


class LatticeSubgroup(Record):
    """Subgroup of the root lattice, stored by its Hermite basis rows."""

    __slots__ = _fields = ("n", "basis")

    n: int
    basis: tuple[tuple[int, ...], ...]

    def __init__(self, n, basis):
        self._fill(n, basis)

    @staticmethod
    def from_generators(n: int, gens) -> "LatticeSubgroup":
        rows = [list(g) for g in gens]
        for row in rows:
            if len(row) != n:
                raise ValueError("generator has wrong length")
        return LatticeSubgroup(n, _hnf(rows))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def reduce(self, v: Vec) -> Vec:
        """The canonical representative of the coset v + L.

        Each Hermite row, in order, clears its pivot entry down to the
        range [0, pivot); vectors in the same coset reduce alike.
        """
        rem = list(v)
        for row in self.basis:
            col = next(j for j, x in enumerate(row) if x)
            qt = rem[col] // row[col]
            if qt:
                for j in range(col, self.n):
                    rem[j] -= qt * row[j]
        return tuple(rem)

    def contains(self, v: Vec) -> bool:
        return not any(self.reduce(v))

    def leq(self, other: "LatticeSubgroup") -> bool:
        """Whether this lattice is a subgroup of the other."""
        if self.n != other.n:
            raise ValueError("lattices live in different ambient ranks")
        return all(other.contains(row) for row in self.basis)

    def __repr__(self) -> str:
        return f"LatticeSubgroup(rank={self.rank}, basis={self.basis})"


def integer_kernel(rows: list[list[int]], n: int) -> LatticeSubgroup:
    """Kernel lattice {x in Z^n : M x = 0} for the m x n integer matrix M.

    The Hermite form of (M^T | I) is a unimodular change of the rows
    (M e_i, e_i); its rows whose image part vanishes are a basis of the
    kernel, read off the identity part.
    """
    m = len(rows)
    work = [[rows[k][i] for k in range(m)] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    return LatticeSubgroup(n, tuple(row[m:] for row in _hnf(work) if not any(row[:m])))


def orthogonal_complement_lattice(rs: RootSystem, vectors) -> LatticeSubgroup:
    """Sublattice of the root lattice orthogonal to all given vectors."""
    rows = []
    for v in vectors:
        rows.append([bilinear(rs, v, rs.simple(j + 1)) for j in range(rs.rank)])
    return integer_kernel(rows, rs.rank)
