"""Canonical binary naturals built from two digit constructors.

``Even(x)`` denotes 2x and ``Odd(x)`` denotes 2x+1, with the least
significant digit outermost, so a number reads like a bit string written
back to front.  ``Zero`` is the empty digit string.  Uniqueness needs one
rule: ``Even`` is never applied directly to ``Zero`` (that would be a
leading zero).  The smart constructors :func:`even` and :func:`odd`
maintain the rule, and all arithmetic goes through them.

Two addition algorithms are kept side by side on purpose: :func:`add_v1`
resolves digit carries with a separate increment, :func:`add_v2` folds the
carry into a mutually recursive "add plus one" so every recursive call
shrinks its arguments.  They always produce identical structures.

Conversions to and from machine integers go through Python's base-2
text, ``bin(n)`` and ``int(bits, 2)``: one builder wraps a
most-significant-first ``"0"``/``"1"`` string onto a tail, one walker
reads it back off, and :mod:`numrep.twoscomp`, :mod:`numrep.braun` and
the literal parser and printer of :mod:`numrep.numio` convert through
the same pair.  The builder, like the smart constructors that build
every digit of the arithmetic's results, creates each digit and fills
its slot as the generated ``__init__`` would, without calling it: the
digit is the value a class call makes, and as immutable.  ``to_int`` makes
that one walk and tests canonicality on what it read: a chain ends at
its tail, so only the innermost digit or a foreign tail can break the
rule; :func:`is_canonical` walks to the innermost digit without
building the string.  Every walk over a chain, these and the equality,
hashing, ``repr`` and pickling of :class:`Numeral`, is a loop over
``type(x) is C`` tests, never a recursion, and equality stops at the
first tail two chains share.  Every numeral
constructor in the package derives from :class:`Numeral`, defined here
next to that pair, and every immutable value in the package, numerals
included, from :class:`Record`.  The package's error messages show an
outside value by the two rules here: a text by at most its first 60
characters, a number past 100 digits by its bit length.  The two
read-only tables that make a row on its key's first use,
:data:`numrep.numio.KINDS` and :data:`numrep.costmeter.METERED`, are
instances of one class here, ``_OnFirstUse``, made from a table of
plain-data rows and the one function that resolves a key's row.  A key
that cannot be hashed, such as a list, is in neither table: testing it
gives False, where a dict's test raises TypeError.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, Tuple, Union


class CanonicalityError(ValueError):
    """A numeral violates its representation rules."""


def _shown(text: str) -> str:
    """text as an error message quotes it: its first 60 characters at most."""
    return text if len(text) <= 60 else text[:60] + "..."


# a number past 100 digits is named by its size: its decimal would make an
# unbounded message, and past 4300 digits Python refuses to print it
_SHOWN_NUMBER = 10**100


def _number(n: int, noun: str = "") -> str:
    """n as an error message names it: its decimal up to 100 digits, else
    noun and its bit length, as in "index of 16607 bits"."""
    if isinstance(n, int) and not -_SHOWN_NUMBER < n < _SHOWN_NUMBER:
        return f"{noun} of {abs(n).bit_length()} bits".lstrip()
    return str(n)


class _OnFirstUse(Mapping):
    """A read-only table over the keys of ``keys``, in their order, whose
    rows are made on first use: ``table[key]`` is ``value(key)``, which
    makes and keeps the key's row on its first use, or raises KeyError.
    Naming, listing or testing the keys makes no row, and testing an
    unhashable key gives False."""

    def __init__(self, keys: Mapping, value: Callable[[Any], Any]) -> None:
        self._keys, self._value = keys, value

    def __getitem__(self, key: Any) -> Any:
        return self._value(key)

    def __contains__(self, key: object) -> bool:
        try:
            return key in self._keys
        except TypeError:  # unhashable, as a list is: no key
            return False

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class Record:
    """Base of the package's immutable values.

    A subclass names its own fields in ``__slots__``, after any it
    inherits, and gets a generated ``__init__`` with one parameter per
    field, named after it, which stores each through the slot's own
    setter (``Cls.x.__set__``, bound once when the class is created):
    calling the member descriptor directly is the cheapest way to fill a
    slot that ``__setattr__`` refuses.  A subclass that adds no fields
    keeps its parent's ``__init__``.  Afterwards, assigning or deleting
    an attribute raises AttributeError.
    ``__match_args__`` are the field names, equality is type-exact over
    the tuple of field values, ``hash`` is the hash of that tuple,
    ``repr`` reads ``Cls(field=value, ...)``, and pickle and copy rebuild
    a value by calling its class on the field values.
    """

    __slots__ = ()
    __match_args__: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__dict__.get("__slots__", ()))
        cls.__match_args__ += own
        if own:
            cls.__init__ = _constructor(cls)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> Tuple[type, tuple]:
        return type(self), _values(self)


def _values(r: Record) -> tuple:
    return tuple([getattr(r, f) for f in r.__match_args__])


def _constructor(cls: type) -> Any:
    """Compile ``cls.__init__`` from its fields, as namedtuple compiles ``__new__``."""
    fields = cls.__match_args__
    params = "".join(f", {f}" for f in fields)
    body = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
    namespace = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
    exec(f"def __init__(self{params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Numeral(Record):
    """Base of the numeral constructors: a chain of one-slot wrappers ending
    in a nullary constructor.

    Equality and :meth:`_chain` walk the chain in a loop, so values of
    any length compare, hash, print, pickle and deep-copy at any recursion
    limit.  Each loop tests a node's class with ``type(x) is`` and looks
    its child's field up in one table per class.  Equality is structural
    and type-exact, and stops at a tail the two chains share.  Hashing,
    ``repr`` and pickling read the one walk of :meth:`_chain`: the flat
    tuple of the wrapper classes and the tail.  A value hashes as that
    tuple, with a nullary tail's class standing in for it; ``repr`` is the
    keyword form, such as ``Odd(rest=Zero())``; a value reduces to the
    tuple of classes plus its tail.  A subclass's first field, its own or
    inherited, names its child, if any; a child that is not a numeral ends
    the chain and is compared, hashed, printed and pickled as itself.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        _CHILD[cls] = cls.__match_args__[0] if cls.__match_args__ else ""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        a, b = self, other
        while a is not b:
            ta = type(a)
            field = _CHILD.get(ta)
            if field is None or type(b) is not ta:
                return a == b  # a foreign tail, or two classes
            if not field:
                return True
            a, b = getattr(a, field), getattr(b, field)
            while type(a) is ta and type(b) is ta and a is not b:  # the rest of a run of ta
                a, b = getattr(a, field), getattr(b, field)
        return True

    def __hash__(self) -> int:
        classes, tail = self._chain()
        # a nullary class stands in for its values, which are all equal
        return hash((classes, type(tail) if type(tail) in _CHILD else tail))

    def _chain(self) -> Tuple[Tuple[type, ...], Any]:
        """The wrapper classes, outermost first, and the tail: a nullary numeral or a foreign child."""
        classes, x = [], self
        while True:
            tx = type(x)
            field = _CHILD.get(tx)
            if not field:
                return tuple(classes), x
            classes.append(tx)
            x = getattr(x, field)

    def __repr__(self) -> str:
        classes, tail = self._chain()
        end = f"{type(tail).__qualname__}()" if type(tail) in _CHILD else repr(tail)
        return "".join(f"{cls.__qualname__}({_CHILD[cls]}=" for cls in classes) + end + ")" * len(classes)

    def __reduce__(self) -> Tuple[Any, tuple]:
        classes, tail = self._chain()
        if not classes:
            return super().__reduce__()
        return _rebuild, (classes, tail)


# each numeral class -> the field that holds its child, or "" if it is
# nullary; a class missing here is not a numeral and ends a chain
_CHILD: Dict[type, str] = {Numeral: ""}


def _rebuild(classes: Tuple[type, ...], tail: Any) -> Any:
    """Inverse of :meth:`Numeral.__reduce__`: wrap classes, outermost first, onto tail."""
    for cls in reversed(classes):
        tail = cls(tail)
    return tail


class Zero(Numeral):
    """The empty digit string: 0."""

    __slots__ = ()


class Even(Numeral):
    """Digit constructor for 2n: appends a 0 bit."""

    __slots__ = ("rest",)


class Odd(Numeral):
    """Digit constructor for 2n+1: appends a 1 bit."""

    __slots__ = ("rest",)


BinNat = Union[Zero, Even, Odd]


# the smart constructors' allocator and slot setters, bound once: a digit
# built by these skips the class call and the re-entry of the interpreter
# that runs the generated __init__
_new = object.__new__
_fill_even, _fill_odd = Even.rest.__set__, Odd.rest.__set__


def even(x: BinNat) -> BinNat:
    # 2 * 0 = 0, so collapsing keeps results canonical without special cases;
    # any other digit is built as _from_bits builds one
    if type(x) is Zero:
        return x
    digit = _new(Even)
    _fill_even(digit, x)
    return digit


def odd(x: BinNat) -> BinNat:
    digit = _new(Odd)
    _fill_odd(digit, x)
    return digit


def from_int(n: int) -> BinNat:
    """Binary digits of n, least significant constructor outermost."""
    if n < 0:
        raise ValueError(f"cannot represent {_number(n, 'a negative number')} as a binary natural")
    return _from_bits(bin(n)[2:].lstrip("0"), Zero())


def to_int(x: BinNat) -> int:
    """Inverse of :func:`from_int`; rejects non-canonical input."""
    bits, tail = _bits(x)
    if not _canonical(bits[:1], tail):
        raise CanonicalityError(f"non-canonical binary natural: {x!r}")
    return int(bits or "0", 2)


def _from_bits(bits: str, tail: Any, zero: type = Even, one: type = Odd) -> Any:
    """Wrap the digits of a most-significant-first 0/1 string onto tail.

    Each digit is created by ``object.__new__`` and its one slot filled
    through that slot's setter, as the generated ``__init__`` does, but
    without a call into ``__init__`` per digit."""
    new, fill_zero, fill_one = object.__new__, zero.rest.__set__, one.rest.__set__
    for b in bits:
        if b == "1":
            digit = new(one)
            fill_one(digit, tail)
        else:
            digit = new(zero)
            fill_zero(digit, tail)
        tail = digit
    return tail


def _bits(x: Any, zero: type = Even, one: type = Odd) -> Tuple[str, Any]:
    """Inverse of :func:`_from_bits`: (most-significant-first 0/1 string, tail)."""
    digits = []
    push = digits.append
    while True:
        tx = type(x)
        if tx is one:
            push("1")
        elif tx is zero:
            push("0")
        else:
            break
        x = x.rest
    digits.reverse()
    return "".join(digits), x


def _lead(x: Any) -> Tuple[str, Any]:
    """(innermost digit of x as "0"/"1", or "" if it has none; tail): the
    first character of :func:`_bits`'s string, without building the rest."""
    inner = None
    tx = type(x)
    while tx is Even or tx is Odd:
        inner = tx
        x = x.rest
        tx = type(x)
    return ("" if inner is None else "1" if inner is Odd else "0"), x


def is_canonical(x: BinNat) -> bool:
    """True iff no ``Even`` is applied directly to ``Zero`` anywhere."""
    return _canonical(*_lead(x))


def _canonical(lead: str, tail: Any) -> bool:
    """The rule over a digit chain's innermost digit and its tail: the chain
    ends in ``Zero``, and its innermost digit, the only one that can wrap
    the tail, is not an ``Even``."""
    return type(tail) is Zero and lead != "0"


def size(x: BinNat) -> int:
    """Number of digit constructors (0 for the zero numeral).

    Counts the digits of a non-canonical chain too, such as
    ``Even(Zero())``; raises TypeError for a chain that does not end in
    ``Zero``, a foreign value included.
    """
    bits, tail = _bits(x)
    if type(tail) is not Zero:
        raise TypeError(f"not a binary natural: {tail!r}")
    return len(bits)


# The recursive operations dispatch with ``type(x) is C`` tests, one branch
# per clause of the definition and in the same order, as the clause table
# in tests/clause_table.txt pins.  In CPython a tuple
# ``match`` builds its subject and runs a sequence match plus isinstance
# tests on every call, which is several times slower; the constructors have
# no subclasses, so an identity test on the type decides the same clauses.


def add1(x: BinNat) -> BinNat:
    """Increment: flip trailing 1 bits until a 0 bit absorbs the carry."""
    tx = type(x)
    if tx is Zero:
        return Odd(Zero())
    if tx is Even:
        return odd(x.rest)
    if tx is Odd:
        return even(add1(x.rest))
    raise TypeError(f"not a binary natural: {x!r}")


def add_v1(x: BinNat, y: BinNat) -> BinNat:
    """Addition, first formulation: the 1+1 carry goes through add1."""
    tx, ty = type(x), type(y)
    if ty is Zero:
        return x
    if tx is Zero:
        return y
    if tx is Even:
        if ty is Even:
            return even(add_v1(x.rest, y.rest))
        if ty is Odd:
            return odd(add_v1(x.rest, y.rest))
    elif tx is Odd:
        if ty is Even:
            return odd(add_v1(x.rest, y.rest))
        if ty is Odd:
            return even(add1(add_v1(x.rest, y.rest)))
    raise TypeError(f"not binary naturals: {x!r}, {y!r}")


def add_v2(x: BinNat, y: BinNat) -> BinNat:
    """Addition, second formulation: carries handled by :func:`add_plus1`.

    Every recursive call consumes a digit from each nonzero argument, so
    the running time is plainly linear in the larger digit count.
    """
    tx, ty = type(x), type(y)
    if ty is Zero:
        return x
    if tx is Zero:
        return y
    if tx is Even:
        if ty is Even:
            return even(add_v2(x.rest, y.rest))
        if ty is Odd:
            return odd(add_v2(x.rest, y.rest))
    elif tx is Odd:
        if ty is Even:
            return odd(add_v2(x.rest, y.rest))
        if ty is Odd:
            return even(add_plus1(x.rest, y.rest))
    raise TypeError(f"not binary naturals: {x!r}, {y!r}")


def add_plus1(x: BinNat, y: BinNat) -> BinNat:
    """x + y + 1, mutually recursive with :func:`add_v2`."""
    tx, ty = type(x), type(y)
    if tx is Zero:
        if ty is Zero:
            return Odd(Zero())
        if ty is Even:
            return odd(y.rest)
        if ty is Odd:
            return even(add_plus1(Zero(), y.rest))
    elif ty is Zero:
        if tx is Even:
            return odd(x.rest)
        if tx is Odd:
            return even(add_plus1(x.rest, Zero()))
    elif tx is Even:
        if ty is Even:
            return odd(add_v2(x.rest, y.rest))
        if ty is Odd:
            return even(add_plus1(x.rest, y.rest))
    elif tx is Odd:
        if ty is Even:
            return even(add_plus1(x.rest, y.rest))
        if ty is Odd:
            return odd(add_plus1(x.rest, y.rest))
    raise TypeError(f"not binary naturals: {x!r}, {y!r}")


def mult(x: BinNat, y: BinNat) -> BinNat:
    """Multiplication, structural on the second argument (shift and add)."""
    ty = type(y)
    if ty is Zero:
        return Zero()
    if ty is Even:
        return even(mult(x, y.rest))
    if ty is Odd:
        return add_v2(x, even(mult(x, y.rest)))
    raise TypeError(f"not a binary natural: {y!r}")
