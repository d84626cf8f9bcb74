import pytest

from relprof.series import (
    RationalForm,
    classify_growth,
    expand,
    fit_rational,
    format_poly,
    series_from,
)


def test_expand_two_clique_form():
    form = RationalForm((1,), denominator_exponents=(1, 2))
    assert expand(form, 6).coeffs == (1, 1, 2, 2, 3, 3, 4)


def test_expand_cubic_tournament_form():
    form = RationalForm((1, 0, -1, 0, 0, 1, 1), denominator_exponents=(1, 2, 3))
    assert expand(form, 11).coeffs == (1, 1, 1, 2, 2, 3, 5, 6, 8, 11, 13, 16)


def test_expand_recurrence_denominator():
    form = RationalForm((1,), denominator_poly=(1, -1, 0, -1))
    got = expand(form, 9).coeffs
    assert got == (1, 1, 1, 2, 3, 4, 6, 9, 13, 19)
    # independent recurrence oracle: a(n) = a(n-1) + a(n-3)
    a = [1, 1, 1]
    for n in range(3, 10):
        a.append(a[n - 1] + a[n - 3])
    assert got == tuple(a)


def test_expand_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        RationalForm((1,), denominator_poly=(0, 1))


def test_alternative_forms_of_linear_profile_agree():
    # 1 + x/(1-x)^2 rewritten over a common denominator is (1-x+x^2)/(1-x)^2
    # and also (1+x^3)/((1-x)(1-x^2)); all three give phi(n) = n, phi(0) = 1
    a = RationalForm((1, -1, 1), denominator_exponents=(1, 1))
    b = RationalForm((1, 0, 0, 1), denominator_exponents=(1, 2))
    ea = expand(a, 10).coeffs
    eb = expand(b, 10).coeffs
    assert ea == eb == (1,) + tuple(range(1, 11))
    # the published middle numerator 1-x-x^2 has a sign slip: it expands to a
    # different sequence, so the corrected form above is the equivalent one
    published = RationalForm((1, -1, -1), denominator_exponents=(1, 1))
    assert expand(published, 4).coeffs != ea[:5]


def test_fit_two_clique():
    seq = series_from([n // 2 + 1 for n in range(11)])
    fit = fit_rational(seq, denominator_exponents=(1, 2))
    assert fit.success and fit.numerator == (1,)


def test_fit_t2_numerator():
    seq = series_from([1, 1, 1, 2, 2, 3, 4, 5, 6, 7])
    fit = fit_rational(seq, denominator_exponents=(1, 1))
    assert fit.success
    assert fit.numerator == (1, -1, 0, 1, -1, 1)


def test_fit_constant_sequence():
    fit = fit_rational(series_from([1] * 7), denominator_exponents=(1,))
    assert fit.success and fit.numerator == (1,)


def test_fit_failure_reports_residuals():
    seq = series_from([2 ** n for n in range(10)])
    fit = fit_rational(seq, denominator_exponents=(1,))
    assert not fit.success
    assert any(fit.residual_window)


def test_fit_round_trip():
    seqs = [
        series_from([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]),
        series_from([1, 1, 1, 2, 2, 3, 4, 5, 6, 7]),
        series_from([1, 1, 1, 2, 3, 4, 6, 9, 13, 19]),
    ]
    specs = [
        {"denominator_exponents": (1, 2)},
        {"denominator_exponents": (1, 1)},
        {"denominator_poly": (1, -1, 0, -1)},
    ]
    for seq, spec in zip(seqs, specs):
        fit = fit_rational(seq, **spec)
        assert fit.success
        assert expand(fit.form, seq.window).coeffs == seq.coeffs


def test_fit_margin_validation():
    with pytest.raises(ValueError, match="^margin 5 exceeds the 2 values of window 1$"):
        fit_rational(series_from([1, 2]), denominator_exponents=(1,), margin=5)


def test_classify_constant():
    report = classify_growth(series_from([1] * 10))
    assert report.kind == "constant"


def test_classify_quasi_linear():
    report = classify_growth(series_from([n // 2 + 1 for n in range(12)]))
    assert report.kind == "polynomial" and report.degree == 1


def test_classify_t2_linear():
    report = classify_growth(series_from([1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9]))
    assert report.kind == "polynomial" and report.degree == 1


def test_classify_cubic_denominator_degree_two():
    form = RationalForm((1, 0, -1, 0, 0, 1, 1), denominator_exponents=(1, 2, 3))
    seq = expand(form, 24)
    report = classify_growth(seq)
    assert report.kind == "polynomial" and report.degree == 2


def test_classify_exponential_suspected():
    report = classify_growth(series_from([2 ** max(n - 1, 0) for n in range(12)]))
    assert report.kind == "super-polynomial-suspected"
    assert report.heuristic


def test_classify_super_polynomial_note_gives_exact_tail_ratios():
    fibonacci = [1, 1]
    while len(fibonacci) < 12:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    report = classify_growth(series_from(fibonacci))
    assert report.kind == "super-polynomial-suspected"
    assert "tail ratios 55/34, 89/55, 144/89 " in report.note


def test_classify_window_precondition():
    with pytest.raises(ValueError):
        classify_growth(series_from([1, 2, 3]))


def test_format_poly():
    assert format_poly((1, -1, 0, 1, -1, 1)) == "1 - x + x^3 - x^4 + x^5"
    assert format_poly((0,)) == "0"
    assert format_poly((1,)) == "1"
