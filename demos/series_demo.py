"""Generating series of profiles as exact rational forms.

Run:  python3 demos/series_demo.py
"""

from relprof.presentations import (
    half_complete_bipartite,
    lexsum_tournament_fixture,
    sum_of_cliques,
    tournament_fixtures,
)
from relprof.profiles import profile_sequence
from relprof.series import classify_growth, fit_rational

print("Fit each profile window against a denominator and read off the numerator.\n")

cases = [
    ("two infinite cliques", sum_of_cliques(2), dict(denominator_exponents=(1, 2))),
    ("T2", lexsum_tournament_fixture("T2"), dict(denominator_exponents=(1, 1))),
    ("T3", lexsum_tournament_fixture("T3"), dict(denominator_exponents=(1, 2, 3))),
    ("C3 along omega", tournament_fixtures("C3omega"), dict(denominator_poly=(1, -1, 0, -1))),
]
for label, pres, spec in cases:
    seq = profile_sequence(pres, 11 if "T3" in label else 9)
    fit = fit_rational(seq, **spec)
    print(f"{label}:")
    print(f"  window  {', '.join(map(str, seq.coeffs))}")
    print(f"  form    {fit.form}")

print("\nA fit is a window statement: the tail of profile * denominator must")
print("vanish with a safety margin.  A wrong denominator fails loudly:")
seq = profile_sequence(half_complete_bipartite(), 9)
fit = fit_rational(seq, denominator_exponents=(1, 2))
print(f"  half-complete bipartite vs (1-x)(1-x^2): success={fit.success}, "
      f"residuals {fit.residual_window}")

print("\nGrowth classification (heuristic, window evidence only):")
for label, pres, window in [
    ("two infinite cliques", sum_of_cliques(2), 12),
    ("T3", lexsum_tournament_fixture("T3"), 24),
    ("half-complete bipartite", half_complete_bipartite(), 9),
]:
    seq = profile_sequence(pres, window)
    g = classify_growth(seq)
    degree = "" if g.degree is None else f", degree {g.degree}"
    print(f"  {label:26s} -> {g.kind}{degree}")
