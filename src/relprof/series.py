"""Exact truncated power series, rational forms, fitting and growth heuristics.

All coefficients are Python integers; nothing here is floating point.  A
rational form is an integer numerator over either a product of cyclotomic
style factors (1-x^d1)...(1-x^dk) or a general integer polynomial with
constant term 1, which covers denominators like 1-x-x^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of a series known up to x^N."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a truncated series needs at least c_0")

    @property
    def window(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def series_from(values) -> TruncatedSeries:
    return TruncatedSeries(tuple(int(v) for v in values))


def poly_mul(p, q, cap=None):
    n = len(p) + len(q) - 1 if p and q else 0
    if cap is not None:
        n = min(n, cap + 1)
    out = [0] * n
    for i, a in enumerate(p):
        if a == 0 or i >= n:
            continue
        for j, b in enumerate(q):
            if i + j >= n:
                break
            out[i + j] += a * b
    return out


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p or [0]


@dataclass(frozen=True)
class RationalForm:
    """numerator / denominator with denominator constant term 1.

    Exactly one of ``denominator_exponents`` (meaning the product of
    (1 - x^d) over the exponents) and ``denominator_poly`` is set.
    """

    numerator: tuple[int, ...]
    denominator_exponents: tuple[int, ...] | None = None
    denominator_poly: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.denominator_exponents is None) == (self.denominator_poly is None):
            raise ValueError("exactly one denominator representation required")
        if self.denominator_exponents is not None:
            if any(d < 1 for d in self.denominator_exponents):
                raise ValueError("exponents must be positive")
        else:
            if not self.denominator_poly or self.denominator_poly[0] != 1:
                raise ValueError("denominator must have constant term 1")

    def denominator(self) -> tuple[int, ...]:
        if self.denominator_poly is not None:
            return self.denominator_poly
        poly = [1]
        for d in self.denominator_exponents:
            factor = [1] + [0] * (d - 1) + [-1]
            poly = poly_mul(poly, factor)
        return tuple(poly)

    def __str__(self):
        num = format_poly(self.numerator)
        if self.denominator_exponents is not None:
            den = "".join(f"(1-x^{d})" if d > 1 else "(1-x)" for d in self.denominator_exponents)
            den = den or "1"
        else:
            den = f"({format_poly(self.denominator_poly)})"
        return f"({num}) / {den}" if den != "1" else num


def format_poly(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        x = "x" if i == 1 else f"x^{i}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign} {mag}{x}".strip() if terms else f"{'-' if c < 0 else ''}{mag}{x}")
    return " ".join(terms) if terms else "0"


def expand(form: RationalForm, window: int) -> TruncatedSeries:
    """First window+1 coefficients of the series quotient."""
    den = form.denominator()
    if not den or den[0] == 0:
        raise ValueError("denominator must be invertible as a series")
    if den[0] != 1:
        raise ValueError("denominator constant term must be 1")
    num = list(form.numerator)
    coeffs = []
    for n in range(window + 1):
        c = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            c -= den[j] * coeffs[n - j]
        coeffs.append(c)
    return TruncatedSeries(tuple(coeffs))


@dataclass(frozen=True)
class FitResult:
    success: bool
    numerator: tuple[int, ...] | None
    residual_window: tuple[int, ...]
    form: RationalForm | None


def fit_rational(seq: TruncatedSeries, denominator_exponents=None, denominator_poly=None,
                 margin: int = 3) -> FitResult:
    """Multiply the window by the denominator and test that the tail vanishes.

    Success is a window statement only: the product's last ``margin``
    coefficients are zero, and the trimmed head is reported as the
    numerator.  It is never a proof that the series is that rational
    function beyond the window.
    """
    if margin < 1:
        raise ValueError("margin must be positive")
    if margin > seq.window + 1:
        raise ValueError(
            f"margin {margin} exceeds the {seq.window + 1} values of window {seq.window}"
        )
    probe = RationalForm(
        (1,),
        denominator_exponents=tuple(denominator_exponents) if denominator_exponents else None,
        denominator_poly=tuple(denominator_poly) if denominator_poly else None,
    )
    den = probe.denominator()
    product = poly_mul(list(seq.coeffs), list(den), cap=seq.window)
    product += [0] * (seq.window + 1 - len(product))
    tail = tuple(product[seq.window + 1 - margin:])
    if any(tail):
        return FitResult(False, None, tail, None)
    numerator = tuple(_trim(product[: seq.window + 1 - margin]))
    form = RationalForm(numerator, probe.denominator_exponents, probe.denominator_poly)
    return FitResult(True, numerator, tail, form)


# ---------------------------------------------------------------------------
# Growth classification (heuristic, window-bounded)
# ---------------------------------------------------------------------------

#: The longest period and the highest difference order that classify_growth tries.
MAX_PERIOD = MAX_ORDER = 6


@dataclass(frozen=True)
class GrowthReport:
    kind: str  # "constant" | "polynomial" | "super-polynomial-suspected"
    degree: int | None
    period: int | None
    note: str

    heuristic: bool = True


def classify_growth(seq: TruncatedSeries) -> GrowthReport:
    """Window heuristic: repeated step-p differences reaching a zero tail
    mean (quasi-)polynomial growth of the counted order; otherwise the
    growth is flagged super-polynomial-suspected.  Never a proof.
    """
    if seq.window < 6:
        raise ValueError("need a window of at least 6 values")
    values = list(seq.coeffs)
    for period in range(1, MAX_PERIOD + 1):
        level = values
        for order in range(1, MAX_ORDER + 1):
            level = [level[i + period] - level[i] for i in range(len(level) - period)]
            if len(level) < 3:
                break
            if all(v == 0 for v in level[-3:]):
                degree = order - 1
                kind = "constant" if degree == 0 else "polynomial"
                return GrowthReport(
                    kind, degree, period,
                    f"step-{period} differences vanish at order {order} (window evidence only)",
                )
    tail = [v for v in values[-4:] if v > 0]
    ratios = ", ".join(str(Fraction(b, a)) for a, b in zip(tail, tail[1:]))
    note = (
        f"no difference order <= {MAX_ORDER} at periods <= {MAX_PERIOD} stabilizes; "
        f"tail ratios {ratios} (window evidence only)"
    )
    return GrowthReport("super-polynomial-suspected", None, None, note)
