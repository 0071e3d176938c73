"""From a stratum to a right coideal subalgebra: characters, psi, twisting.

Every triple (w, character f on the Theta root vectors, lattice L
orthogonal to the support) produces generators of a right coideal
subalgebra of the non-negative part.  The character knows its stratum and
the stratum its reduced word of w, so a triple is just (f, L).  coideal_check verifies the coideal
property on a height-bounded piece, exactly.

Run:  python demos/04_twisted_coideals.py
"""

from qborel.coeffs import ONE, from_int
from qborel.rootsys import build_root_system
from qborel.strata import (
    CoidealTriple,
    Stratum,
    character,
    enumerate_strata,
    max_admissible_lattice,
    theta_set,
    validate_triple,
)
from qborel.uqplus.full import UAlgebra
from qborel.uqplus.hopf import (
    coideal_check,
    coproduct,
    psi_apply,
    span_is_Q_graded,
    twist_generators,
)
from qborel.weyl import ReducedWord

rs = build_root_system("A2")
alg = UAlgebra(rs)
word = ReducedWord(rs, (1, 2, 1))

# the coproduct on the nonnegative part
print("Delta(E_1) =", repr(coproduct(alg, alg.E(1))))
print("psi(E_1)   =", repr(psi_apply(alg, alg.E(1))))
print()

# a character on a stratum assigns nonzero scalars to the Theta roots
st = Stratum(theta_set(word, (1,)))
ch = character(st, {st.theta.roots[0]: from_int(2)})
L = max_admissible_lattice(ch)
print("stratum Theta={1}: support", st.theta.roots, " L_max basis", L.basis)
triple = CoidealTriple(ch, L)
print("triple is admissible:", validate_triple(triple))
print()

gens = twist_generators(alg, ch, L)
for g in gens:
    print("  generator:", repr(g))
print()

# bounded, exact verification of the coideal property and the Q-grading
for st in enumerate_strata(word):
    ch = character(st, {b: ONE for b in st.theta.roots})
    L = max_admissible_lattice(ch)
    gens = twist_generators(alg, ch, L)
    ok = coideal_check(alg, gens, 4)
    gr = span_is_Q_graded(alg, gens, 4)
    print(f"Theta={str(st.theta.indices or '{}'):<8} coideal_check: {ok}   Q-graded: {gr}")
print()

# a deliberately broken generator set fails
print("plain E_1 generates a coideal?", coideal_check(alg, [alg.E(1)], 4))
