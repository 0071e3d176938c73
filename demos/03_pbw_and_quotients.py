"""Root vectors, PBW bases, straightening, and the polynomial quotients.

Run:  python demos/03_pbw_and_quotients.py
"""

from itertools import combinations

from qborel.rootsys import build_root_system
from qborel.strata import enumerate_Tw
from qborel.uqplus.free import kostant_dim
from qborel.uqplus.full import UAlgebra, lusztig_T, root_vectors
from qborel.uqplus.pbw import (
    enumerate_polynomial_ideals,
    ls_relation,
    pbw_data,
    pbw_expand,
    quotient_is_commutative_polynomial,
)
from qborel.weyl import ReducedWord

rs = build_root_system("A2")
alg = UAlgebra(rs)
word = ReducedWord(rs, (1, 2, 1))

# Lusztig symmetries build one root vector per inversion root
print("T_1(E_2) =", repr(lusztig_T(alg, 1, alg.E(2))))
for beta, x in zip(word.roots, root_vectors(alg, word)):
    print(f"  E_{beta} = {x!r}")
print()

# straightening: E_{b1} E_{b3} reorders with a q-scalar plus lower terms
data = pbw_data(alg, word)
v = pbw_expand(alg, word, data.free_vectors[0] * data.free_vectors[2])
print("E_{b1} E_{b3} in the PBW basis:", v.render())
print("ls_relation(1,3):", ls_relation(alg, word, 1, 3).render())
print("ls_relation(1,2):", ls_relation(alg, word, 1, 2).render(), "(adjacent roots commute up to q)")
print()

# PBW monomial count per weight matches the Kostant partition count
print("weight  #PBW  Kostant")
for mu in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
    exps = data.exponents_of_weight(mu)
    print(f"  {mu}   {len(exps)}     {kostant_dim(rs, mu)}")
print()

# which index sets cut out commutative polynomial quotients?
for label in ("A2", "B2"):
    rs = build_root_system(label)
    alg = UAlgebra(rs)
    letters = (1, 2, 1) if label == "A2" else (1, 2, 1, 2)
    word = ReducedWord(rs, letters)
    found = enumerate_polynomial_ideals(alg, word)
    admissible = sorted((th.indices for th in enumerate_Tw(word)), key=lambda s: (len(s), s))
    print(f"{label} w0: polynomial ideals {found}")
    print(f"{label} w0: admissible sets  {admissible}  match: {found == admissible}")

# the blind search really does reject the rest
rs = build_root_system("A2")
alg = UAlgebra(rs)
word = ReducedWord(rs, (1, 2, 1))
rejected = [
    S
    for r in range(4)
    for S in combinations((1, 2, 3), r)
    if not quotient_is_commutative_polynomial(alg, word, S)
]
print("rejected subsets:", rejected)
