import random
from fractions import Fraction

from hypothesis import given, strategies as st

from preloss.scalars import INF, fmt_scalar, scalar

rationals = st.fractions(min_value=0, max_value=100)
scalars = st.one_of(rationals, st.just(INF))


def test_absorption():
    assert INF * 0 == Fraction(0)
    assert 0 * INF == Fraction(0)
    assert INF * Fraction(0) == Fraction(0)
    assert INF * Fraction(1, 3) is INF
    assert INF + 7 is INF
    assert Fraction(7) + INF is INF
    assert INF + INF is INF
    assert INF * INF is INF


def test_plain_rationals():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)


def test_total_order_with_inf_maximal():
    big = Fraction(10 ** 9)
    assert INF != big and INF > big and not INF < big
    assert big != INF and big < INF and not big > INF
    assert INF == INF and not INF < INF and not INF > INF
    assert Fraction(3) < INF and INF > Fraction(3)
    assert not (INF < INF) and INF <= INF


@given(scalars, scalars)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_identities(a):
    assert a + Fraction(0) == a
    assert a * Fraction(1) == a
    assert a * Fraction(0) == Fraction(0)


def test_monotonicity_sampled():
    rng = random.Random(7)
    pool = [Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(40)] + [INF]
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if a <= b:
            assert a + c <= b + c
            assert a * c <= b * c


def test_parse_and_format():
    assert scalar("1/2") == Fraction(1, 2)
    assert scalar("inf") is INF
    assert scalar(3) == Fraction(3)
    assert fmt_scalar(INF) == "inf"
    assert fmt_scalar(Fraction(5, 6)) == "5/6"


def test_negative_rejected():
    import pytest

    with pytest.raises(ValueError):
        scalar(-1)
    with pytest.raises(ValueError):
        INF * (-2)


def test_floats_are_refused_and_exact_values_kept():
    import pytest

    for bad in (0.1, 0.5, 2.0, float("inf")):
        with pytest.raises(ValueError, match=f"float {bad!r}"):
            scalar(bad)
    assert scalar("1/10") == Fraction(1, 10)
    assert scalar(Fraction(3, 4)) == Fraction(3, 4)
    assert scalar(" inf ") is INF and scalar(INF) is INF
    with pytest.raises(ValueError):
        INF * 0.5


def test_no_floats_in_the_package():
    """The analyzer is exact: no float literal and no float() call in its source."""
    import ast
    import pathlib

    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "preloss"
    sources = sorted(package.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float() call")
    assert found == []
