import math

import numpy as np
import pytest

from orlipde import ConfigError
from orlipde.expressions import compile_expression


def value(text, *X):
    """The expression at coordinates X (a 1-d point x1 = 0 when none are given)."""
    return compile_expression(text, max(len(X), 1), "f")(*(X or (0.0,)))


class TestArithmetic:
    def test_power_is_right_associative_and_binds_above_unary_minus(self):
        assert value("2^3^2") == 512.0
        assert value("-2^2") == -4.0
        assert value("2^-1") == 0.5

    def test_double_star_is_power(self):
        assert value("2**3**2") == value("2^3^2") == 512.0

    def test_precedence_and_parentheses(self):
        assert value("1 + 2 * 3 - 4 / 8") == 6.5
        assert value("(1 + 2) * -(3 - 4)") == 3.0
        assert value("+.5e1") == 5.0

    def test_pi_and_functions(self):
        x = np.array([0.25, 1.0, 4.0])
        for name, fn in (("abs", np.abs), ("sqrt", np.sqrt), ("sin", np.sin),
                         ("cos", np.cos), ("exp", np.exp), ("log", np.log)):
            assert np.array_equal(value(f"{name}(x1)", x), fn(x)), name
        assert np.array_equal(value("pi * x1", x), math.pi * x)
        assert value("cos(pi)", 0.0) == -1.0

    def test_constants_take_the_shape_of_the_coordinates(self):
        X = np.zeros((3, 4)), np.zeros((3, 4))
        for text, want in (("1.5", 1.5), ("pi", math.pi)):
            got = compile_expression(text, 2, "f")(*X)
            assert got.shape == (3, 4) and np.all(got == want), text

    def test_variables_follow_the_dimension(self):
        x1, x2 = np.array([1.0, 2.0]), np.array([10.0, 20.0])
        assert np.array_equal(compile_expression("x1 - x2", 2, "f")(x1, x2), x1 - x2)
        with pytest.raises(ValueError, match="expects 2 coordinates"):
            compile_expression("x1", 2, "f")(x1)


class TestErrors:
    @pytest.mark.parametrize("text, fault", [
        ("x3", "variable x3 out of range for dimension 2"),
        ("", "unexpected end of expression"),
        ("1 2", "expected end of expression, found 2.0"),
        ("(1", "expected ')', found end of expression"),
        ("foo(x1)", "unknown name 'foo' in expression"),
        ("sqrt(x1, x1)", "expected ')', found ','"),
        ("x1 $ 2", "cannot tokenize expression at '$ 2'"),
    ], ids=["x3_in_2d", "empty", "two_numbers", "open_paren", "unknown_function",
            "two_arguments", "bad_character"])
    def test_config_error_names_its_label(self, text, fault):
        with pytest.raises(ConfigError) as caught:
            compile_expression(text, 2, "coefficient p=(2,0)")
        assert str(caught.value) == f"coefficient p=(2,0): {fault}"
        assert caught.value.__cause__ is None and caught.value.__suppress_context__
