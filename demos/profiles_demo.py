"""Profiles of classic structures: count isomorphism types of n-element
restrictions, exactly.

Run:  python3 demos/profiles_demo.py
"""

from relprof.presentations import (
    colored_dense_chain,
    half_complete_bipartite,
    lexsum_tournament_fixture,
    sum_of_cliques,
    tournament_fixtures,
)
from relprof.profiles import profile_finite, profile_sequence
from relprof.structures import path_graph


def show(label, values):
    print(f"{label:24s} {', '.join(str(v) for v in values)}")


print("Profiles phi(0), phi(1), ... of some infinite structures:\n")

# A dense linear order painted with k colors: every word of colors appears,
# so the profile is exactly k^n.
for k in (1, 2, 3):
    seq = profile_sequence(colored_dense_chain(k), 6)
    show(f"{k}-colored dense chain", seq.coeffs)

# Two disjoint infinite cliques: a restriction is a pair of cliques, so the
# profile counts partitions of n into at most two parts.
show("two infinite cliques", profile_sequence(sum_of_cliques(2), 10).coeffs)

# The infinite path: restrictions are disjoint unions of subpaths, giving
# the partition numbers p(n).  A 30-vertex window is wide enough for n <= 8
# because a partition of n realized by disjoint subpaths needs at most
# 2n - 1 vertices including the gaps.
values = [profile_finite(path_graph(30), n) for n in range(9)]
show("infinite path (p(n))", values)

# The half-complete bipartite graph on two chains grows exponentially.
show("half-complete bipartite", profile_sequence(half_complete_bipartite(), 9).coeffs)

print("\nThe tournament family built from the 3-cycle:\n")
for name in ("omega", "T1", "T2", "T3"):
    seq = profile_sequence(lexsum_tournament_fixture(name), 11)
    show(name, seq.coeffs)
show("C3 repeated along omega", profile_sequence(tournament_fixtures("C3omega"), 9).coeffs)

print("\nEvery infinite-structure profile above is non-decreasing, and all")
print("satisfy phi(n) <= (n+1) phi(n+1); see relprof.profiles for the checks.")
