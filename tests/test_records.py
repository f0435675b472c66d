"""The construction contract of the package's immutable values.

Every constructor class, numeral or not, builds positionally and by
keyword, refuses a wrong argument count, refuses assignment and
deletion, survives pickle and copy, and matches on its field names.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import numrep
from numrep import binary, braun, checks, costmeter, twoscomp, unary


class Pair(binary.Record):
    """A record defined outside the package: its constructor is generated too."""

    __slots__ = ("first", "second")


# class -> (field names, one value per field)
SAMPLES = {
    unary.Zero: ((), ()),
    unary.Succ: (("pred",), (unary.Zero(),)),
    binary.Zero: ((), ()),
    binary.Even: (("rest",), (binary.Odd(binary.Zero()),)),
    binary.Odd: (("rest",), (binary.Zero(),)),
    twoscomp.MinusOne: ((), ()),
    braun.IxZero: ((), ()),
    braun.IxOdd: (("rest",), (braun.IxZero(),)),
    braun.IxEven: (("rest",), (braun.IxOdd(braun.IxZero()),)),
    braun.Node: (("elem", "left", "right"), (1, None, braun.Node(2, None, None))),
    braun.BraunSeq: (("length", "tree"), (2, braun.Node("a", braun.Node("b", None, None), None))),
    checks.CheckResult: (("suite", "name", "passed", "detail"), ("binary", "roundtrip", False, "at 3")),
    costmeter.CostReport: (
        ("op_id", "samples", "bound", "k", "passed", "worst_ratio"),
        ("b_add_v2", ((1, 2), (2, 3)), "linear", 1, True, 1.5),
    ),
    Pair: (("first", "second"), (1, Pair("x", None))),
}

# the text of the dataclass repr these classes had, kept byte for byte
REPRS = {
    braun.Node: "Node(elem=1, left=None, right=Node(elem=2, left=None, right=None))",
    braun.BraunSeq: "BraunSeq(length=2, tree=Node(elem='a', left=Node(elem='b', left=None, right=None), right=None))",
    checks.CheckResult: "CheckResult(suite='binary', name='roundtrip', passed=False, detail='at 3')",
    costmeter.CostReport: (
        "CostReport(op_id='b_add_v2', samples=((1, 2), (2, 3)), bound='linear', k=1, "
        "passed=True, worst_ratio=1.5)"
    ),
}

classes = pytest.mark.parametrize(
    "cls", list(SAMPLES), ids=lambda c: f"{c.__module__.split('.')[-1]}.{c.__name__}"
)


def sample(cls):
    return cls(*SAMPLES[cls][1])


@classes
def test_positional_and_keyword_construction_agree(cls):
    names, args = SAMPLES[cls]
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, f) for f in names) == args


@classes
def test_wrong_argument_count_is_a_type_error(cls):
    names, args = SAMPLES[cls]
    with pytest.raises(TypeError):
        cls(*args, None)
    if names:
        with pytest.raises(TypeError):
            cls()


def test_generated_constructor_argument_errors():
    with pytest.raises(TypeError, match=r"^Pair\.__init__\(\) missing 1 required positional argument"):
        Pair(1)
    with pytest.raises(TypeError, match=r"^Pair\.__init__\(\) takes 3 positional arguments"):
        Pair(1, 2, 3)
    with pytest.raises(TypeError, match=r"^Pair\.__init__\(\) got an unexpected keyword argument 'third'"):
        Pair(1, third=3)


def test_a_class_keyword_that_names_no_field_is_a_type_error():
    with pytest.raises(TypeError):
        class Bad(binary.Record, third=0):
            __slots__ = ("first",)


def test_a_subclass_without_fields_keeps_the_constructor():
    class Named(checks.CheckResult):
        __slots__ = ()

    assert Named.__init__ is checks.CheckResult.__init__


@classes
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = sample(cls)
    for name in SAMPLES[cls][0]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, f) for f in SAMPLES[cls][0]) == SAMPLES[cls][1]


@classes
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(cls, protocol):
    value = sample(cls)
    again = pickle.loads(pickle.dumps(value, protocol))
    assert type(again) is cls
    assert again == value


@classes
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_round_trips(cls, how):
    value = sample(cls)
    again = how(value)
    assert type(again) is cls
    assert again == value


@classes
def test_match_args_are_the_field_names(cls):
    assert cls.__match_args__ == SAMPLES[cls][0]


def test_match_binds_the_child():
    match binary.from_int(5):
        case binary.Odd(r):
            bound = r
        case _:
            bound = None
    assert bound == binary.from_int(2)
    match braun.from_list("xy"):
        case braun.BraunSeq(n, braun.Node(elem, left, None)):
            assert (n, elem, left) == (2, "x", braun.Node("y", None, None))
        case _:
            pytest.fail("BraunSeq pattern did not match")


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda c: c.__name__)
def test_repr_text_is_pinned(cls):
    assert repr(sample(cls)) == REPRS[cls]


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda c: c.__name__)
def test_equality_is_type_exact_and_hash_is_the_field_tuples(cls):
    class Sub(cls):
        __slots__ = ()

    args = SAMPLES[cls][1]
    value = cls(*args)
    assert hash(value) == hash(args)
    assert value == cls(*args)
    assert value != Sub(*args)
    assert Sub(*args) != value
    assert Sub(*args) == Sub(*args)
    assert value != args
    assert len({value, cls(*args)}) == 1


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numrep.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_binds_slot_setters():
    for info in pkgutil.iter_modules(numrep.__path__):
        module = importlib.import_module(f"numrep.{info.name}")
        assert [n for n in vars(module) if n.startswith("_set_")] == [], module.__name__
