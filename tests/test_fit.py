"""Extrapolation fit: exact recovery, published windows, parameter domains,
and the Brent minimisation against a golden-section search."""
import pytest

from oracles import fit_predict, golden_minimum
from tgf import spectral
from tgf.errors import UsageError
from tgf.spectral import fit_extrapolation


def test_recovers_its_own_model():
    a, b, c, d = 2.95, 0.7, 0.6, 1.3
    points = [(n, a - b * (n - c) ** (-d)) for n in range(10, 40)]
    fit = fit_extrapolation(points, 10, 39)
    assert abs(fit.a - a) < 1e-6
    assert abs(fit.b - b) < 1e-5
    assert abs(fit.c - c) < 1e-4
    assert abs(fit.d - d) < 1e-5
    assert fit.residual < 1e-12


def test_case1_window(bounds1):
    points = [(row["n"], row["lambda_max"]) for row in bounds1]
    fit = fit_extrapolation(points, 12, 37)
    assert abs(fit.a - 2.950) < 0.02
    assert fit.b > 0 and fit.d > 0 and fit.c < 12
    assert fit.residual < 1e-6
    assert fit.window == (12, 37)


def test_case2_window(bounds2):
    points = [(row["n"], row["lambda_max"]) for row in bounds2]
    fit = fit_extrapolation(points, 8, 24)
    assert abs(fit.a - 3.870) < 0.02
    assert fit.residual < 1e-6


def test_window_too_small():
    points = [(n, 2.0 + 0.01 * n) for n in range(1, 20)]
    with pytest.raises(UsageError):
        fit_extrapolation(points, 10, 14)


def test_window_from_the_first_level(bounds1):
    # the window may start at n = 1: c stays below n - 0.25 throughout
    points = [(row["n"], row["lambda_max"]) for row in bounds1]
    fit = fit_extrapolation(points, 1, 37)
    assert fit.c < 0.75 and fit.b > 0 and fit.d > 0
    assert fit.residual < 1e-3


def test_predict_matches_formula():
    points = [(n, 3.0 - 1.0 * (n - 0.5) ** -1.0) for n in range(8, 20)]
    fit = fit_extrapolation(points, 8, 19)
    assert abs(fit_predict(fit, 25.0) - (3.0 - (25 - 0.5) ** -1.0)) < 1e-5


def _self_model_points():
    return [(n, 2.95 - 0.7 * (n - 0.6) ** (-1.3)) for n in range(10, 40)]


@pytest.mark.parametrize("case, lo, hi", [(1, 12, 37), (2, 8, 24), (1, 1, 37), (None, 10, 39)],
                         ids=["case1", "case2", "case1-from-1", "self-model"])
def test_brent_fit_matches_golden_section_search(case, lo, hi, bounds1, bounds2, monkeypatch):
    # the minimum's valley is flat along (c, d), so the parameters of two
    # searches stopped at width 1e-10 differ by up to about 1e-6; the fitted
    # curve over the window and the residual are what the data determine
    if case is None:
        points = _self_model_points()
    else:
        points = [(row["n"], row["lambda_max"]) for row in (bounds1, bounds2)[case - 1]]
    evaluations = {}

    def fit_with(search, name):
        def counted(f, a, b):
            def g(x):
                evaluations[name] = evaluations.get(name, 0) + 1
                return f(x)
            return search(g, a, b)

        monkeypatch.setattr(spectral, "_brent", counted)
        return fit_extrapolation(points, lo, hi)

    brent = fit_with(spectral._brent, "brent")
    golden = fit_with(golden_minimum, "golden")
    for n in range(lo, hi + 1):
        assert abs(fit_predict(brent, n) - fit_predict(golden, n)) < 1e-9
    assert abs(brent.residual - golden.residual) < 1e-9
    assert evaluations["brent"] < evaluations["golden"] / 3
