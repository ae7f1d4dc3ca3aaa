import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eigenbounds import ParseError, parse_theta
from eigenbounds.expressions import (EvaluationError, compile_theta,
                                     probe_expressions)


def reference_eval(text, mu):
    """Independent evaluator: Python eval with a restricted namespace."""
    ns = {"cos": math.cos, "sin": math.sin, "exp": math.exp,
          "sqrt": math.sqrt, "__builtins__": {}}
    for k, v in enumerate(np.atleast_1d(mu)):
        ns[f"mu{k + 1}"] = float(v)
    return eval(text, ns)  # noqa: S307 - test-only oracle


def test_constant_and_variable():
    assert parse_theta("cos(mu1)").evaluate([0.0]) == 1.0
    assert parse_theta("1 + mu2*mu2").evaluate([0.0, 0.5]) == 1.25


def test_mixed_expression():
    expr = parse_theta("sin(mu1)*cos(mu2) - mu1/2")
    mu = [math.pi / 2, 0.0]
    assert_allclose(expr.evaluate(mu), 1.0 - math.pi / 4, rtol=1e-15)
    assert_allclose(expr.evaluate(mu), reference_eval(expr.source, mu),
                    rtol=1e-15)


@pytest.mark.parametrize("text", [
    "1", "-mu1", "mu1 - -mu2", "2*(mu1 + 3)/4", "exp(-mu1*mu1)",
    "sqrt(mu1 + 2)", "cos(sin(mu2))", "1e-3 + 2.5E2*mu1", ".5*mu1",
])
def test_against_reference_eval(text):
    expr = parse_theta(text)
    rng = np.random.default_rng(0)
    for _ in range(25):
        mu = rng.uniform(-1.0, 1.0, size=2)
        assert_allclose(expr.evaluate(mu), reference_eval(text, mu),
                        rtol=1e-14, atol=1e-300)


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse_theta("co(mu1)")
    assert err.value.offset == 0
    assert "co" in str(err.value)


def test_trailing_tokens():
    with pytest.raises(ParseError) as err:
        parse_theta("mu1 mu2")
    assert err.value.offset == 4


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError) as err:
        parse_theta("cos(mu1")
    assert err.value.offset == 7


def test_variable_beyond_parameter_count():
    with pytest.raises(ParseError):
        parse_theta("mu3", n_params=2)
    parse_theta("mu3", n_params=3)  # boundary is fine


def test_bad_character():
    with pytest.raises(ParseError) as err:
        parse_theta("mu1 ^ 2")
    assert err.value.offset == 4


def test_division_by_zero_is_evaluation_error():
    expr = parse_theta("1/mu1")
    with pytest.raises(EvaluationError):
        expr.evaluate([0.0])


def test_sqrt_of_negative_is_evaluation_error():
    expr = parse_theta("sqrt(mu1)")
    with pytest.raises(EvaluationError):
        expr.evaluate([-1.0])


@pytest.mark.parametrize("text, message", [
    ("exp(1000*mu1)", "exp of 1000.0 at offset 0: math range error"),
    ("cos(mu1*1e308*10)", "cos of inf at offset 0: math domain error"),
    ("mu1*1e308*10", "not finite at mu=[1.]"),
], ids=["exp-overflow", "cos-of-inf", "product-overflow"])
def test_overflow_is_evaluation_error(text, message):
    with pytest.raises(EvaluationError) as info:
        parse_theta(text).evaluate([1.0])
    assert str(info.value) == message
    # the compiled theta names the entry once, in front of the reason
    with pytest.raises(EvaluationError) as info:
        compile_theta(["1", text], 1)([1.0])
    assert str(info.value) == f"theta[1] = {text!r}: {message}"


def test_probe_catches_domain_errors():
    bad = compile_theta(["1", "sqrt(mu1)"], 1)
    with pytest.raises(EvaluationError, match=re.escape(
            "theta[1] = 'sqrt(mu1)': sqrt of negative value")):
        probe_expressions(bad, [(-1.0, 1.0)])
    good = compile_theta(["sqrt(mu1 + 2)"], 1)
    probe_expressions(good, [(-1.0, 1.0)])


def test_compiled_theta_evaluates_each_expression_and_keeps_sources():
    sources = ("1", "cos(mu2)", "mu1*mu1/2")
    theta = compile_theta(sources, 2)
    assert theta.sources == sources
    mu = np.array([0.3, -1.2])
    assert theta(mu).tolist() == [parse_theta(s).evaluate(mu)
                                  for s in sources]
    with pytest.raises(ParseError, match="exceeds parameter count 1"):
        compile_theta(sources, 1)


def test_compiled_theta_names_the_failing_entry():
    theta = compile_theta(["1", "1/mu1"], 1)
    with pytest.raises(EvaluationError, match=re.escape(
            "theta[1] = '1/mu1': division by zero at offset 1")):
        theta([0.0])
