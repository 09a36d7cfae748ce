import pytest

import diamramsey as dr

TRI = dr.obtuse_triangle(150.0)
COLORED = dr.ColoredConfiguration(configuration=TRI, colors=(0, 0, 0))

# Every public callable that takes a tolerance, called with tol=value.
CALLS = {
    "affine_dimension": lambda tol: dr.affine_dimension(TRI, tol),
    "is_congruent": lambda tol: dr.is_congruent(TRI, TRI, tol),
    "Ball.contains": lambda tol: dr.min_enclosing_ball(TRI).contains([0.5, 0.0], tol),
    "circumsphere": lambda tol: dr.circumsphere(TRI, tol),
    "is_spherical": lambda tol: dr.is_spherical(TRI, tol),
    "circumcenter_in_hull": lambda tol: dr.circumcenter_in_hull(TRI, tol),
    "obstruction_verdict": lambda tol: dr.obstruction_verdict(TRI, tol),
    "conjecture_classification": lambda tol: dr.conjecture_classification(TRI, tol),
    "find_monochromatic_copy": lambda tol: dr.find_monochromatic_copy(COLORED, TRI, tol),
    "estimate_c": lambda tol: dr.estimate_c(dr.SpreadProblem(TRI, 0.9), tolerance=tol),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_negative_tolerance_rejected(name):
    for bad in (-1.0, -1e-300, float("nan")):
        with pytest.raises(dr.DomainError, match="nonnegative"):
            CALLS[name](bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_zero_tolerance_allowed(name):
    try:
        CALLS[name](0.0)
    except dr.DomainError as exc:
        pytest.fail(f"tol=0 rejected: {exc}")
    except dr.GeometryError:
        pass  # an exact test may fail on rounding; only the domain matters


# Every shared scalar check, given an entry that is not a real number or
# that a float cannot hold; numeric strings are not real numbers either.
NOT_REAL = {
    "SpreadProblem radius 'a'": lambda: dr.SpreadProblem(TRI, radius="a"),
    "SpreadProblem radius '0.5'": lambda: dr.SpreadProblem(TRI, radius="0.5"),
    "SpreadProblem radius 10**400": lambda: dr.SpreadProblem(TRI, radius=10 ** 400),
    "falsify_coloring radius 10**400": lambda: dr.falsify_coloring(TRI, 10 ** 400, 0.1, 10),
    "num_colors radius 'a'": lambda: dr.num_colors("a", 1),
    "ShellColoring shell_width 'a'": lambda: dr.ShellColoring(shell_width="a", radius=1),
    "almost_regular_simplex delta 'a'": lambda: dr.almost_regular_simplex(3, "a"),
    "is_congruent tol 'a'": lambda: dr.is_congruent(TRI, TRI, tol="a"),
    "is_congruent tol 10**400": lambda: dr.is_congruent(TRI, TRI, tol=10 ** 400),
}


@pytest.mark.parametrize("name", sorted(NOT_REAL))
def test_scalar_that_is_not_real_raises_domain_error(name):
    with pytest.raises(dr.DomainError, match="real number"):
        NOT_REAL[name]()
