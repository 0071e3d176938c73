"""Admissible subsets T^w and the stratification they cut out.

For a Weyl element w with reduced word (i_1..i_t) and inversion roots
beta_1..beta_t, the admissible index sets Theta give pairwise orthogonal
root subsets with l(w_Theta) = l(w) - |Theta|.  Each Theta labels one
stratum; kappa sends it to w_Theta, reversing inclusion against the
Bruhat order.

Run:  python demos/02_stratification.py
"""

from qborel.rootsys import build_root_system
from qborel.strata import classify, enumerate_Tw, enumerate_strata, kappa, theta_set
from qborel.weyl import ReducedWord, bruhat_le, canonical_word

rs = build_root_system("A2")
word = ReducedWord(rs, (1, 2, 1))

print("A2, w0 = s1 s2 s1, inversion roots:", word.roots)
for th in enumerate_Tw(word):
    y = kappa(th)
    print(f"  Theta indices {str(th.indices or '{}'):<8} roots {str(th.roots or '{}'):<18}"
          f" -> w_Theta word {canonical_word(y) or '()'}")
print()

# order reversal: bigger Theta, smaller image in Bruhat order
th1 = theta_set(word, (1,))
th0 = theta_set(word, ())
print("Theta={1} contains Theta={}, and kappa flips them in Bruhat order:",
      bruhat_le(kappa(th1), kappa(th0)))
print()

# strata carry a dimension: |Theta| = l(w) - l(w_Theta)
for st in enumerate_strata(word):
    print(f"  stratum Theta={str(st.theta.indices or '{}'):<8} dim {st.dim}")
print()

# the full report, as the CLI prints it
print(classify(word, "A2").to_tsv())
print()

# same dims for every reduced word of the same element
rs = build_root_system("B2")
for letters in ((1, 2, 1, 2), (2, 1, 2, 1)):
    word = ReducedWord(rs, letters)
    dims = sorted(st.dim for st in enumerate_strata(word))
    print(f"B2 w0 via {letters}: stratum dims {dims}")
