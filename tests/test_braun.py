"""Braun sequences and index numerals; the reference ``from_list`` is
``shared.comprehension_from_list``."""

import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrep import binary, braun
from numrep.braun import EMPTY, IxEven, IxOdd, IxZero
from shared import binary_digits, comprehension_from_list, index_digits

elements = st.lists(st.integers(-1000, 1000), max_size=500)


def shape_and_count(node):
    # recursive shape oracle: left holds the same count as right, or one more
    if node is None:
        return 0
    lc = shape_and_count(node.left)
    rc = shape_and_count(node.right)
    assert rc <= lc <= rc + 1
    return lc + rc + 1


def assert_valid(s):
    assert shape_and_count(s.tree) == s.length


# --- index numerals ---------------------------------------------------------

def test_index_small_values():
    assert braun.cd_from_int(0) == IxZero()
    assert braun.cd_from_int(1) == IxOdd(IxZero())
    assert braun.cd_from_int(2) == IxEven(IxZero())
    assert braun.cd_from_int(5) == IxOdd(IxEven(IxZero()))  # 2*2 + 1


def test_index_roundtrip_997():
    assert braun.cd_to_int(braun.cd_from_int(997)) == 997


def test_index_rejects_negative():
    with pytest.raises(ValueError):
        braun.cd_from_int(-4)


@given(st.integers(0, 1_000_000))
def test_index_roundtrip(n):
    assert braun.cd_to_int(braun.cd_from_int(n)) == n


def test_index_digit_strings_biject_with_integers():
    # every digit string of up to 12 digits denotes a distinct integer,
    # and together they cover an initial segment exactly
    values = []

    def grow(ix, depth):
        values.append(braun.cd_to_int(ix))
        if depth < 12:
            grow(IxOdd(ix), depth + 1)
            grow(IxEven(ix), depth + 1)

    grow(IxZero(), 0)
    assert sorted(values) == list(range(2 ** 13 - 1))
    for n in values[:200]:
        assert braun.cd_to_int(braun.cd_from_int(n)) == n


def test_rejected_zero_based_digit_indexing_wastes_left_children():
    # Contrast demonstration for the design notes: with ordinary 0-based
    # binary digits as tree paths, the no-leading-zero rule makes every
    # path ending in the doubling digit unreachable, so the slot at every
    # left child would stay empty.  The 1/2-valued digits reach everything.
    all_paths = set()
    frontier = [()]
    for _ in range(5):
        frontier = [p + (d,) for p in frontier for d in ("odd", "even")]
        all_paths.update(frontier)
    all_paths.add(())

    # all numerals of <= 5 digits
    ab_reachable = {tuple("odd" if d is binary.Odd else "even" for d in binary_digits(n)) for n in range(32)}
    empty_slots = all_paths - ab_reachable
    assert empty_slots == {p for p in all_paths if p and p[-1] == "even"}

    cd_reachable = {tuple("odd" if d is IxOdd else "even" for d in index_digits(n)) for n in range(2 ** 6 - 1)}
    assert cd_reachable == all_paths


# --- sequence construction and access ---------------------------------------

def test_empty_roundtrip():
    assert braun.to_list(EMPTY) == []
    assert braun.from_list([]) == EMPTY


def test_small_roundtrip():
    assert braun.to_list(braun.from_list(["a", "b", "c"])) == ["a", "b", "c"]


def test_from_list_builds_the_trees_of_the_comprehension():
    for n in [*range(601), 4095, 4096, 4097, 2**17]:
        xs = list(range(n))
        assert braun.from_list(xs) == comprehension_from_list(xs)
    xs = list(range(1000))
    for other in (iter(xs), range(1000), tuple(xs)):  # an iterator is read once
        assert braun.from_list(other) == comprehension_from_list(xs)
    assert braun.from_list("braun tree") == comprehension_from_list(list("braun tree"))


def test_from_list_makes_no_class_call_per_node(monkeypatch):
    want = comprehension_from_list(range(4097))

    def refuse(*args):
        raise AssertionError("Node() called")

    monkeypatch.setattr(braun.Node, "__init__", refuse)
    with pytest.raises(AssertionError, match="Node"):
        braun.Node(1, None, None)
    assert braun.from_list(range(4097)) == want


def test_from_list_is_foldr_cons_empty():
    for n in range(601):
        xs = list(range(n))
        assert braun.from_list(xs) == functools.reduce(lambda s, x: braun.cons(x, s), reversed(xs), EMPTY)


@given(elements)
@settings(max_examples=60)
def test_list_roundtrip_and_shape(xs):
    s = braun.from_list(xs)
    assert_valid(s)
    assert len(s) == len(xs)
    assert braun.to_list(s) == xs


def test_access_root():
    assert braun.access(braun.from_list(["x"]), 0) == "x"


def test_access_small():
    s = braun.from_list(["a", "b", "c", "d", "e"])
    assert braun.access(s, 3) == "d"


def test_access_hundred():
    s = braun.from_list(range(100))
    assert braun.access(s, 64) == 64


@given(elements.filter(bool))
@settings(max_examples=60)
def test_access_agrees_with_list_indexing(xs):
    s = braun.from_list(xs)
    for i in range(len(xs)):
        assert braun.access(s, i) == xs[i]


def test_access_out_of_range():
    s = braun.from_list([1, 2, 3])
    for i in (-1, 3, 100):
        with pytest.raises(IndexError):
            braun.access(s, i)


@pytest.mark.parametrize("i", [10**5000, -10**5000], ids=["positive", "negative"])
def test_a_huge_index_is_out_of_range_in_a_short_message(i):
    # past 4300 digits Python refuses to print the index
    s = braun.from_list([1, 2, 3])
    for call in (lambda: braun.access(s, i), lambda: braun.update(s, i, 9)):
        with pytest.raises(IndexError, match=r"^index of 16610 bits out of range for length 3$"):
            call()


def test_access_cd_matches_access():
    s = braun.from_list([10 * k for k in range(37)])
    for i in (0, 3, 17, 36):
        assert braun.access_cd(s, braun.cd_from_int(i)) == braun.access(s, i)


def test_access_cd_falls_off_the_tree():
    s = braun.from_list([1, 2, 3])
    with pytest.raises(IndexError):
        braun.access_cd(s, braun.cd_from_int(3))
    with pytest.raises(IndexError):
        braun.access_cd(EMPTY, IxZero())


def test_access_cd_rejects_foreign_indices():
    s = braun.from_list(range(20))
    for ix in (1, "1", None, IxOdd(1), IxEven(IxOdd(None))):
        with pytest.raises(TypeError):
            braun.access_cd(s, ix)


# --- replicate -----------------------------------------------------------------

SHAPES = {}  # (left shape, right shape) -> shape number; 0 is the empty tree


def shape_of(node, memo):
    # the tree's shape number, one visit per distinct node (memo: id -> number)
    if node is None:
        return 0
    if id(node) not in memo:
        pair = (shape_of(node.left, memo), shape_of(node.right, memo))
        memo[id(node)] = SHAPES.setdefault(pair, len(SHAPES) + 1)
    return memo[id(node)]


@functools.cache
def braun_shape(n):
    # oracle: the one Braun shape of size n, left subtree the ceiling half
    if n == 0:
        return 0
    return SHAPES.setdefault((braun_shape(n // 2), braun_shape((n - 1) // 2)), len(SHAPES) + 1)


def distinct_nodes(node):
    seen, stack = {}, [node]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen[id(node)] = node
            stack += [node.left, node.right]
    return len(seen)


def test_replicate_has_the_shape_of_from_list():
    for n in [*range(601), 4095, 4096, 4097, 16384]:
        r, s = braun.replicate(n, "v"), braun.from_list(range(n))
        assert shape_of(r.tree, {}) == shape_of(s.tree, {}) == braun_shape(n)
        assert braun.to_list(r) == ["v"] * n


def test_replicate_shape_and_node_count_at_every_size():
    for n in range(4097):
        r = braun.replicate(n, "v")
        assert (len(r), shape_of(r.tree, {})) == (n, braun_shape(n))
        assert distinct_nodes(r.tree) <= 2 * n.bit_length()


def test_replicate_a_huge_sequence_from_few_nodes():
    n = 10**18
    r = braun.replicate(n, "v")
    length, nodes = len(r), distinct_nodes(r.tree)
    assert length == n
    assert nodes <= 2 * n.bit_length()
    reads = [braun.access(r, i) for i in (0, n // 3, n - 1)]
    assert reads == ["v"] * 3
    written, last = braun.access(braun.update(r, n - 1, "z"), n - 1), braun.access(r, n - 1)
    assert written == "z"
    assert last == "v"


def test_the_repr_of_a_huge_tree_is_bounded():
    r = braun.replicate(10**18, "v")
    start = time.perf_counter()
    texts = repr(r), repr(r.tree)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert max(map(len, texts)) < 50_000
    assert texts[0].startswith("BraunSeq(length=1000000000000000000, tree=Node(elem='v', ")
    assert texts[0] == f"BraunSeq(length=1000000000000000000, tree={texts[1]})"


def test_a_huge_tree_compares_and_hashes_in_its_distinct_nodes():
    n = 10**18
    r, again = braun.replicate(n, "v"), braun.replicate(n, "v")
    written = braun.update(r, n - 1, "z")
    for check in (lambda: r == again, lambda: again == r, lambda: hash(r) == hash(again),
                  lambda: written != r, lambda: r != written):
        start = time.perf_counter()
        held = check()
        assert time.perf_counter() - start < 0.5
        assert held


def field_tuples(node):
    # the nested tuples of a tree's fields: what Record's == and hash compare
    if not isinstance(node, braun.Node):
        return node
    return node.elem, field_tuples(node.left), field_tuples(node.right)


def test_node_equality_and_hash_are_those_of_its_field_tuples():
    for n in range(64):
        s, t = braun.from_list(range(n)), braun.from_list(list(range(n)))
        assert s == t and hash(s) == hash(t) == hash((n, field_tuples(s.tree)))
        for i in range(n):
            u = braun.update(s, i, -1)
            assert u != s and s != u
    nan = float("nan")
    assert braun.from_list([nan]) == braun.from_list([nan])  # elements: identity first
    assert braun.from_list([float("nan")]) != braun.from_list([float("nan")])
    leaf = braun.Node(1, None, None)
    assert leaf.__eq__((1, None, None)) is NotImplemented
    assert braun.Node(0, leaf, 5) == braun.Node(0, braun.Node(1, None, None), 5)
    assert braun.Node(0, leaf, 5) != braun.Node(0, leaf, 6)
    assert braun.Node(0, leaf, None) != braun.Node(0, None, leaf)

    class Sub(braun.Node):
        __slots__ = ()

    assert braun.Node(0, leaf, None) != braun.Node(0, Sub(1, None, None), None)  # type-exact below too
    assert hash(braun.Node(0, Sub(1, None, None), -1)) == hash((0, (1, None, None), -1))


def test_a_deep_chain_of_nodes_compares_and_hashes_at_any_recursion_limit():
    a, b, c = braun.Node(0, None, None), braun.Node(0, None, None), braun.Node(-1, None, None)
    for i in range(1, 100_000):  # far past any Braun tree's depth
        a, b, c = braun.Node(i, a, None), braun.Node(i, b, None), braun.Node(i, c, None)
    assert a == b and hash(a) == hash(b)
    assert a != c  # only the deepest elements differ


@pytest.mark.parametrize("n, cut", [(1000, 0), (1001, 1)])
def test_a_tree_prints_its_first_1000_nodes_in_full(n, cut):
    text = repr(braun.from_list(range(n)).tree)
    assert (text.count("elem="), text.count("...")) == (1000, cut)


def test_replicate_rejects_a_negative_count():
    with pytest.raises(ValueError):
        braun.replicate(-1, "v")


@pytest.mark.parametrize("n, shown", [(-10, "-10"), (-10 ** 5000, "of 16610 bits")],
                         ids=["small", "5001-digits"])
def test_replicate_names_a_negative_count_of_any_size(n, shown):
    # past 4300 digits str(n) itself raises; the count is named by its size
    with pytest.raises(ValueError) as err:
        braun.replicate(n, "v")
    assert str(err.value) == f"cannot replicate an element: count {shown} is negative"


@pytest.mark.parametrize("n", [1, 2, 5, 33, 1000])
def test_operations_on_a_replicated_sequence_match_the_list_oracle(n):
    r = braun.replicate(n, "v")
    for i in sorted({0, 1 % n, n // 2, n - 1}):
        u = braun.update(r, i, "z")
        assert braun.to_list(u) == ["v"] * i + ["z"] + ["v"] * (n - i - 1)
        assert_valid(u)
    assert braun.to_list(braun.cons("z", r)) == ["z"] + ["v"] * n
    assert braun.to_list(braun.rest(r)) == ["v"] * (n - 1)
    assert_valid(braun.cons("z", r))
    assert_valid(braun.rest(r))
    assert braun.to_list(r) == ["v"] * n


def test_updating_every_index_unshares_the_replicated_nodes():
    for n in range(70):
        r = t = braun.replicate(n, None)
        for i in range(n):
            t = braun.update(t, i, i)
        assert braun.to_list(t) == list(range(n))
        assert braun.to_list(r) == [None] * n


# --- update ------------------------------------------------------------------

def test_update_singleton():
    assert braun.to_list(braun.update(braun.from_list(["a"]), 0, "z")) == ["z"]


def test_update_middle():
    assert braun.to_list(braun.update(braun.from_list(["a", "b", "c"]), 1, "z")) == ["a", "z", "c"]


def test_update_out_of_range():
    with pytest.raises(IndexError):
        braun.update(braun.from_list([1]), 1, 9)
    with pytest.raises(IndexError):
        braun.update(EMPTY, 0, 9)


@given(st.lists(st.integers(), min_size=1, max_size=200), st.data())
@settings(max_examples=60)
def test_update_then_access(xs, data):
    i = data.draw(st.integers(0, len(xs) - 1))
    s = braun.from_list(xs)
    u = braun.update(s, i, "fresh")
    assert_valid(u)
    assert braun.access(u, i) == "fresh"
    assert braun.to_list(u) == xs[:i] + ["fresh"] + xs[i + 1:]
    assert braun.to_list(s) == xs  # original untouched


@given(st.integers(1, 2**512 - 1), st.data())
@settings(max_examples=100)
def test_update_and_both_accesses_agree_at_big_indices(n, data):
    # three independent descents: access's digit text, _update's integer
    # clauses and access_cd's numeral walk.  The assertion names no tree:
    # pytest would repr it, and a Node's repr renders all n positions.
    i = data.draw(st.integers(0, n - 1))
    s = braun.update(braun.replicate(n, "v"), i, "z")
    for j in {j for j in (0, i - 1, i, i + 1, n - 1) if 0 <= j < n}:
        got, walked = braun.access(s, j), braun.access_cd(s, braun.cd_from_int(j))
        assert (got, got == "z") == (walked, j == i)


# --- cons / first / rest -----------------------------------------------------

def test_cons_onto_empty():
    s = braun.cons("x", EMPTY)
    assert braun.to_list(s) == ["x"]
    assert braun.first(s) == "x"


def test_rest_small():
    assert braun.to_list(braun.rest(braun.from_list(["a", "b", "c", "d"]))) == ["b", "c", "d"]


def test_first_rest_of_empty_raise():
    with pytest.raises(ValueError):
        braun.first(EMPTY)
    with pytest.raises(ValueError):
        braun.rest(EMPTY)


@given(st.lists(st.integers(), max_size=100))
@settings(max_examples=60)
def test_cons_rest_stack_law(xs):
    s = braun.from_list(xs)
    t = braun.cons(-1, s)
    assert_valid(t)
    assert braun.first(t) == -1
    assert braun.to_list(t) == [-1] + xs
    back = braun.rest(t)
    assert_valid(back)
    assert braun.to_list(back) == xs
    assert braun.to_list(s) == xs


@given(st.lists(st.integers(), min_size=1, max_size=200))
@settings(max_examples=60)
def test_rest_is_list_tail(xs):
    s = braun.from_list(xs)
    r = braun.rest(s)
    assert_valid(r)
    assert braun.to_list(r) == xs[1:]
    assert braun.to_list(s) == xs


def test_persistence_across_operation_chain():
    xs = list(range(120))
    s = braun.from_list(xs)
    t = s
    for k in range(40):
        t = braun.rest(t)
        t = braun.update(t, k % len(t), -k)
        t = braun.cons(k, t)
    assert braun.to_list(s) == xs


# --- depth -------------------------------------------------------------------

def test_depth_empty_and_singleton():
    assert braun.depth(EMPTY) == 0
    assert braun.depth(braun.from_list([1])) == 1


def test_depth_closed_form_small():
    # oracle: solve the size recurrence directly (left subtree gets the
    # ceiling half), independent of any tree construction
    def depth_rec(n):
        return 0 if n == 0 else 1 + depth_rec(n // 2)

    for n in range(1, 513):
        assert depth_rec(n) == n.bit_length()
        assert braun.depth(braun.from_list(range(n))) == n.bit_length()


def rows_depth(tree):
    # oracle: count the rows of a level-order walk over every node
    rows, row = 0, [] if tree is None else [tree]
    while row:
        rows += 1
        row = [c for n in row for c in (n.left, n.right) if c is not None]
    return rows


SIZES = sorted({*range(300), *(2**k + d for k in range(9, 12) for d in (-1, 0, 1)), 2000})


@pytest.mark.parametrize("build", [lambda n: braun.from_list(range(n)), lambda n: braun.replicate(n, 0)],
                         ids=["from_list", "replicate"])
def test_depth_matches_the_row_walk(build):
    for n in SIZES:
        s = build(n)
        assert braun.depth(s) == rows_depth(s.tree), n


def test_depth_matches_the_row_walk_after_random_operations():
    rng = random.Random(18)
    s = braun.from_list(range(100))
    for _ in range(3000):
        step = rng.randrange(3)
        if step == 0 or not len(s):
            s = braun.cons(rng.randrange(9), s)
        elif step == 1:
            s = braun.rest(s)
        else:
            s = braun.update(s, rng.randrange(len(s)), -1)
        assert braun.depth(s) == rows_depth(s.tree)


def test_depth_reads_only_the_left_spine():
    # 10**18 copies share 2 * 60 nodes; a walk over the rows would not end
    assert braun.depth(braun.replicate(10**18, "v")) == 60
