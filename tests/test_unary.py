import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from numrep import costmeter, unary
from numrep.unary import Succ, Zero


def layers(x):
    # independent oracle: count successor layers by hand
    n = 0
    while isinstance(x, Succ):
        n += 1
        x = x.pred
    assert isinstance(x, Zero)
    return n


def test_from_int_base_cases():
    assert unary.from_int(0) == Zero()
    assert unary.from_int(3) == Succ(Succ(Succ(Zero())))


def test_from_int_layer_count():
    assert layers(unary.from_int(10)) == 10


def test_from_int_rejects_negative():
    with pytest.raises(ValueError):
        unary.from_int(-1)


@pytest.mark.parametrize("n", [unary._HEIGHT_CAP + 1, 10 ** 30])
def test_from_int_refuses_a_height_over_the_bound_at_once(monkeypatch, n):
    monkeypatch.setattr(unary, "_tower", [Zero()])
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        unary.from_int(n)
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == f"cannot represent {n} as a unary natural: over the height bound of 1048576"
    assert unary._tower == [Zero()]  # nothing was built


def test_height_bound_admits_every_unary_input_the_meter_admits():
    # the meter's step bounds never decrease, so refusing the bound + 1
    # means every size it admits is within the bound; nothing is built
    for op_id in ("u_plus", "u_add"):
        costmeter.check_schedule(op_id, [costmeter.STEP_BUDGET - 1])
        with pytest.raises(ValueError):
            costmeter.check_schedule(op_id, [unary._HEIGHT_CAP + 1])


@pytest.mark.parametrize("n", [2.0, "3"])
def test_from_int_rejects_non_integers(n):
    with pytest.raises(TypeError):
        unary.from_int(n)


# --- the shared tower ---------------------------------------------------------

CAP = unary._TOWER_CAP


@given(st.integers(0, CAP), st.integers(0, CAP))
def test_smaller_numerals_are_inside_larger_ones(a, b):
    m, n = sorted((a, b))
    x = unary.from_int(n)
    for _ in range(n - m):
        x = x.pred
    assert x is unary.from_int(m)


def test_tower_holds_at_most_the_cap(monkeypatch):
    monkeypatch.setattr(unary, "_tower", [Zero()])
    for k in (CAP - 1, CAP, CAP + 1, CAP + 1000):
        assert unary.to_int(unary.from_int(k)) == k
        assert len(unary._tower) <= CAP + 1
    assert len(unary._tower) == CAP + 1
    x = unary.from_int(CAP + 3)  # built on the tower's top
    assert x.pred.pred.pred is unary.from_int(CAP)


def test_two_threads_growing_the_tower_at_once(monkeypatch):
    monkeypatch.setattr(unary, "_tower", [Zero()])
    top = 5000
    started = []
    seen = {}

    def grow(name):
        # spin, not block, so that both threads are running when they grow
        started.append(name)
        deadline = time.monotonic() + 30
        while len(started) < 2 and time.monotonic() < deadline:
            pass
        unary.from_int(top)
        seen[name] = [unary.to_int(unary.from_int(n)) for n in range(top + 1)]

    threads = [threading.Thread(target=grow, args=(name,)) for name in ("a", "b")]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"a": list(range(top + 1)), "b": list(range(top + 1))}
    assert len(unary._tower) == top + 1


def test_to_int_small_values():
    assert unary.to_int(Zero()) == 0
    assert unary.to_int(Succ(Zero())) == 1
    assert unary.to_int(unary.from_int(97)) == 97


class Layer(Succ):
    __slots__ = ()


class Nought(Zero):
    __slots__ = ()


@pytest.mark.parametrize("value, tail", [
    (Layer(Zero()), "Layer(pred=Zero())"),
    (Succ(Succ(Layer(Zero()))), "Layer(pred=Zero())"),
    (Nought(), "Nought()"),
    (Succ(Nought()), "Nought()"),
])
def test_to_int_is_type_exact(value, tail):
    # a node of a subclass is a foreign tail, as in == and binary.to_int
    with pytest.raises(TypeError) as err:
        unary.to_int(value)
    assert str(err.value) == f"not a unary natural: {tail}"


@given(st.integers(0, 2000))
def test_int_roundtrip(n):
    assert unary.to_int(unary.from_int(n)) == n


def test_plus_wraps_two_successors():
    # plus(x, 2) is exactly two successor layers around x, whatever x is
    for a in (0, 1, 5, 17):
        x = unary.from_int(a)
        assert unary.plus(x, unary.from_int(2)) == Succ(Succ(x))


def test_plus_zero_zero():
    assert unary.plus(Zero(), Zero()) == Zero()


def test_plus_small_sum():
    assert unary.plus(unary.from_int(4), unary.from_int(5)) == unary.from_int(9)


def test_add_left_identity():
    for n in range(101):
        y = unary.from_int(n)
        assert unary.add(Zero(), y) == y


def test_add_zero_is_first_clause():
    x = unary.from_int(23)
    assert unary.add(x, Zero()) is x


def test_add_small_sum():
    assert unary.add(unary.from_int(7), unary.from_int(8)) == unary.from_int(15)


@given(st.integers(0, 60), st.integers(0, 60))
def test_plus_and_add_agree_with_machine_addition(a, b):
    x, y = unary.from_int(a), unary.from_int(b)
    p = unary.plus(x, y)
    q = unary.add(x, y)
    assert unary.to_int(p) == a + b
    assert unary.to_int(q) == a + b
    assert p == q


@given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25))
def test_plus_commutative_and_associative(a, b, c):
    x, y, z = (unary.from_int(v) for v in (a, b, c))
    assert unary.to_int(unary.plus(x, y)) == unary.to_int(unary.plus(y, x))
    assert unary.plus(unary.plus(x, y), z) == unary.plus(x, unary.plus(y, z))


def test_mult_annihilator_and_identity():
    x = unary.from_int(9)
    assert unary.mult(x, Zero()) == Zero()
    y = unary.from_int(13)
    assert unary.mult(unary.from_int(1), y) == y


def test_mult_small_product():
    assert unary.mult(unary.from_int(6), unary.from_int(7)) == unary.from_int(42)


@given(st.integers(0, 20), st.integers(0, 20))
def test_mult_agrees_with_machine_multiplication(a, b):
    assert unary.to_int(unary.mult(unary.from_int(a), unary.from_int(b))) == a * b


@pytest.mark.parametrize("op, args", [
    (unary.plus, (Zero(), 3)),
    (unary.plus, (Zero(), Succ(Succ("y")))),
    (unary.add, (Zero(), Succ("y"))),
    (unary.mult, (Succ(Zero()), "y")),
])
def test_foreign_values_raise_type_error(op, args):
    with pytest.raises(TypeError):
        op(*args)


def test_wildcard_clauses_accept_any_value():
    assert unary.plus("x", Zero()) == "x"
    assert unary.add("x", Zero()) == "x"
    assert unary.mult("x", Zero()) == Zero()
