"""Wreath-product group model: elements, products, reflections, cycle data."""

import ast
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from routes import GROUPS, factorial, random_element

from wfact.groups import (
    Element,
    GroupParams,
    _canonical_from_cycles,
    all_elements,
    conjugate,
    cycle_data,
    element_to_json,
    identity,
    inverse,
    is_full_set,
    is_member,
    multiply,
    parse_element,
    project,
    read_fields,
    read_integers,
    reflections,
    weight,
)

SMALL_GROUPS = [params for params in GROUPS if params.n >= 2 and params.order <= 24]


# ---------------------------------------------------------------- parameters


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(4, 3, 2)  # p must divide m
    with pytest.raises(ValueError):
        GroupParams(0, 1, 2)
    with pytest.raises(ValueError):
        GroupParams(2, 1, 0)


def test_derived_counts():
    p = GroupParams(4, 2, 3)
    assert p.order == 4**3 * 6 // 2
    assert p.num_reflections == 4 * 3 + 3 * 1
    assert p.num_hyperplanes == 4 * 3 + 3
    q = GroupParams(3, 3, 2)
    assert q.order == 9 * 2 // 3
    assert q.num_reflections == 3
    assert q.num_hyperplanes == 3  # no diagonal contribution when p = m


def test_order_formula_against_enumeration():
    for m, p, n in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (4, 2, 2), (3, 3, 3)]:
        params = GroupParams(m, p, n)
        count = sum(1 for _ in all_elements(params))
        assert count == params.order == m**n * factorial(n) // p


# ---------------------------------------------------------------- arithmetic


def test_multiply_identity_law():
    params = GroupParams(3, 1, 3)
    rng = random.Random(5)
    e = identity(params)
    for _ in range(20):
        g = random_element(params, rng)
        assert multiply(e, g, params) == g
        assert multiply(g, e, params) == g


def test_multiply_example_g212():
    params = GroupParams(2, 1, 2)
    t = Element((2, 1), (1, 0))
    assert multiply(t, t, params) == Element((1, 2), (1, 1))


def test_inverse_property():
    params = GroupParams(4, 2, 3)
    rng = random.Random(9)
    e = identity(params)
    for _ in range(200):
        g = random_element(params, rng)
        assert multiply(g, inverse(g, params), params) == e
        assert multiply(inverse(g, params), g, params) == e


def test_group_axioms_exhaustive_small():
    for params in SMALL_GROUPS:
        elems = list(all_elements(params))
        e = identity(params)
        rng = random.Random(params.order)
        sample = [rng.choice(elems) for _ in range(12)]
        for g in elems:
            assert is_member(g, params)
            assert multiply(g, e, params) == g
            gi = inverse(g, params)
            assert multiply(g, gi, params) == e
        for x in sample:
            for y in sample:
                xy = multiply(x, y, params)
                assert is_member(xy, params)
                for z in sample[:6]:
                    assert multiply(xy, z, params) == multiply(
                        x, multiply(y, z, params), params
                    )


def test_membership_color_sum():
    params = GroupParams(4, 2, 2)
    assert is_member(Element((1, 2), (2, 0)), params)
    assert not is_member(Element((1, 2), (1, 0)), params)


# ---------------------------------------------------------------- projection


def test_project_to_underlying_permutation():
    params = GroupParams(3, 1, 3)
    g = Element((2, 3, 1), (1, 0, 2))
    flat = project(g, params, 1)
    assert flat.perm == (2, 3, 1)
    assert flat.colors == (0, 0, 0)


def test_project_color_reduction():
    # colors reduce mod r under the subgroup identification; the diagonal
    # element with color 2 at one position maps to the identity of G(2,1,2)
    params = GroupParams(4, 2, 2)
    g = Element((1, 2), (2, 0))
    img = project(g, params, 2)
    assert img == Element((1, 2), (0, 0))
    h = Element((2, 1), (3, 1))
    assert project(h, params, 2) == Element((2, 1), (1, 1))


def test_project_rejects_non_divisor():
    params = GroupParams(4, 2, 2)
    with pytest.raises(ValueError):
        project(identity(params), params, 3)


def test_project_is_homomorphism():
    params = GroupParams(4, 1, 3)
    target = GroupParams(2, 1, 3)
    rng = random.Random(13)
    for _ in range(200):
        x = random_element(params, rng)
        y = random_element(params, rng)
        lhs = project(multiply(x, y, params), params, 2)
        rhs = multiply(project(x, params, 2), project(y, params, 2), target)
        assert lhs == rhs


# ---------------------------------------------------------------- cycle data


def test_cycle_data_identity():
    params = GroupParams(2, 2, 2)
    cd = cycle_data(identity(params), params)
    assert cd.lengths == (1, 1)
    assert cd.cycle_colors == (0, 0)
    assert cd.k == 2
    assert cd.d == 2  # zero colors force d = p


def test_cycle_data_single_cycle_color_wraps():
    params = GroupParams(2, 2, 2)
    cd = cycle_data(Element((2, 1), (1, 1)), params)
    assert cd.lengths == (2,)
    assert cd.cycle_colors == (0,)  # 1 + 1 = 2 = 0 mod 2
    assert cd.k == 1
    assert cd.d == 2


def test_cycle_data_diagonal_example():
    params = GroupParams(4, 2, 2)
    cd = cycle_data(Element((1, 2), (2, 0)), params)
    assert cd.lengths == (1, 1)
    assert sorted(cd.cycle_colors) == [0, 2]
    assert cd.k == 2
    assert cd.d == 2
    assert cd.a == 1  # gcd(col 2, m 4) / p


def test_cycle_data_rejects_non_member():
    params = GroupParams(2, 2, 2)
    with pytest.raises(ValueError):
        cycle_data(Element((1, 2), (1, 0)), params)


def test_class_key_conjugacy_invariant():
    # the (length, color) multiset is constant on conjugacy classes of the
    # ambient p = 1 group
    for params in [GroupParams(2, 1, 2), GroupParams(3, 1, 2), GroupParams(2, 1, 3)]:
        elems = list(all_elements(params))
        for g in elems[:: max(1, len(elems) // 24)]:
            key = cycle_data(g, params).class_key
            for h in elems[:: max(1, len(elems) // 16)]:
                conj = conjugate(g, h, params)
                assert cycle_data(conj, params).class_key == key


# ---------------------------------------------------------------- reflections


def test_reflection_counts():
    assert len(reflections(GroupParams(1, 1, 3))) == 3
    assert len(reflections(GroupParams(2, 2, 2))) == 2
    assert len(reflections(GroupParams(2, 1, 2))) == 4


def test_reflection_count_formula():
    for params in SMALL_GROUPS:
        refl = reflections(params)
        assert len(refl) == params.num_reflections
        assert len({t.to_element(params) for t in refl}) == len(refl)


def test_transposition_like_squares_to_identity():
    params = GroupParams(6, 1, 3)
    e = identity(params)
    for t in reflections(params):
        if t.kind == "transposition":
            g = t.to_element(params)
            assert multiply(g, g, params) == e


def test_diagonal_reflections_only_when_proper():
    assert all(t.kind == "transposition" for t in reflections(GroupParams(3, 3, 2)))
    diag = [t for t in reflections(GroupParams(4, 2, 2)) if t.kind == "diagonal"]
    assert len(diag) == 2  # one per position: step 1 -> color 2


def test_reflections_are_members():
    for params in SMALL_GROUPS:
        for t in reflections(params):
            assert is_member(t.to_element(params), params)


# ---------------------------------------------------------------- generation


def test_is_full_set_s3_adjacent():
    params = GroupParams(1, 1, 3)
    refl = reflections(params)
    adjacent = [t for t in refl if (t.i, t.j) in [(1, 2), (2, 3)]]
    assert len(adjacent) == 2
    assert is_full_set(adjacent, params)


def test_is_full_set_g222():
    params = GroupParams(2, 2, 2)
    refl = reflections(params)
    assert not is_full_set(refl[:1], params)
    assert is_full_set(refl, params)


def test_is_full_set_empty():
    assert not is_full_set([], GroupParams(2, 2, 2))
    assert is_full_set([], GroupParams(1, 1, 1))  # trivial group needs nothing


# ---------------------------------------------------------------- grammar


def test_parse_element_explicit():
    params = GroupParams(2, 1, 2)
    assert parse_element("perm=(2,1); colors=(1,0)", params) == Element((2, 1), (1, 0))
    assert parse_element("perm=[2,1,3];colors=[1,0,1]", GroupParams(2, 1, 3)) == (
        Element((2, 1, 3), (1, 0, 1))
    )


def test_parse_element_cycles():
    params = GroupParams(3, 1, 3)
    g = parse_element("cycles=[(2,1),(1,0)]", params)
    # canonical representative: consecutive supports, color on last position
    assert g.perm == (2, 1, 3)
    assert g.colors == (0, 1, 0)
    cd = cycle_data(g, params)
    assert sorted(zip(cd.lengths, cd.cycle_colors)) == [(1, 0), (2, 1)]


def test_parse_element_errors():
    params = GroupParams(2, 2, 2)
    with pytest.raises(ValueError):
        parse_element("perm=(2,1)", params)  # missing colors
    with pytest.raises(ValueError):
        parse_element("cycles=[(3,0)]", params)  # lengths exceed n
    with pytest.raises(ValueError):
        parse_element("perm=(2,1); colors=(1,0)", params)  # not a member (weight 1)
    with pytest.raises(ValueError):
        parse_element("nonsense", params)


def test_parse_element_reads_a_parenthesised_single_entry_as_a_sequence():
    params = GroupParams(1, 1, 1)
    assert parse_element("perm=(1); colors=(0)", params) == Element((1,), (0,))
    assert parse_element("perm=( 1 ,); colors=[+0]", params) == Element((1,), (0,))
    assert parse_element("cycles=((1,0))", params) == Element((1,), (0,))
    assert parse_element("cycles=([ 1 , 0 , ] , )", params) == Element((1,), (0,))


@pytest.mark.parametrize(
    "text",
    [
        "perm=[None,1]; colors=[0,0]",
        "perm=[1,2]; colors=[0,[1]]",
        "cycles=[(2,None)]",
        "perm=[2.7,1]; colors=[0,0]",
        "perm=[True,2]; colors=[0,0]",
        "perm=['2',1]; colors=[0,0]",
        "perm=[2,1]; colors=[0,0x0]",
        "perm=[2,1]; colors=[0,1_0]",
        "perm=[2,1]; colors=[0,- 1]",
        "perm=[2 1]; colors=[0,0]",
        "perm=[2,1,,]; colors=[0,0]",
        "perm=[,]; colors=[0,0]",
        "perm=(2,1]; colors=[0,0]",
        "perm=2,1; colors=0,0",
        "perm=[2,1][0]; colors=[0,0]",
        "perm=((2,1)); colors=[0,0]",
        "perm=[2,\u0661]; colors=[0,0]",
        "cycles=[(2,0,0)]",
        "cycles=[(2)]",
        "cycles=[2,0]",
        "cycles=[(1,0)(1,0)]",
        "perm=[2,1]; colors=[0,0]; cycles=[(2,0)]",
        "perm=[2,1]; colors=[0,0]; extra=[1]",
        "perm=[2,1]",
        "nonsense",
    ],
)
def test_parse_element_rejects_everything_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse_element(text, GroupParams(2, 1, 2))


def test_parse_element_rejects_long_whitespace_runs_in_linear_time():
    # Whitespace may only open a value or follow a token, so a failing match
    # cannot try every split of a run between two places: 10^5 spaces on each
    # side of an entry is rejected at once, not in seconds.
    text = "perm=(" + " " * 100_000 + "1" + " " * 100_000 + "x; colors=(0)"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cannot parse element fragment"):
        parse_element(text, GroupParams(1, 1, 1))
    assert time.perf_counter() - start < 1.0


def test_read_integers_reads_a_comma_separated_list():
    assert read_integers(" 1, -2 ,+3 ") == [1, -2, 3]
    assert read_integers("10") == [10]
    for text in ["", "1,,2", "1,2,", ",1", "1,1_0", "1,١", "(1,2)", "1;2"]:
        with pytest.raises(ValueError, match="expected comma-separated integers"):
            read_integers(text)


def test_read_fields_splits_key_value_fields():
    assert read_fields(" a = 1 ;; b=x=y; ") == {"a": "1", "b": "x=y"}
    assert read_fields(" ; ") == {}
    with pytest.raises(ValueError, match="repeated key 'a'"):
        read_fields("a=1; a =2")
    with pytest.raises(ValueError, match="expected key=value, got 'junk'"):
        read_fields("a=1; junk ")


def test_element_json_round_trip():
    params = GroupParams(4, 2, 3)
    rng = random.Random(17)
    for _ in range(20):
        g = random_element(params, rng)
        assert element_to_json(g, params) == {
            "m": 4, "p": 2, "n": 3, "perm": list(g.perm), "colors": list(g.colors)
        }


@st.composite
def group_elements(draw):
    """(params, g): a random G(m,p,n) with m <= 6, n <= 6 and a random member."""
    m = draw(st.integers(1, 6))
    p = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(1, n + 1)))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    colors[-1] = (colors[-1] - sum(colors) % p) % m  # p | m: now p | sum(colors)
    return GroupParams(m, p, n), Element(tuple(perm), tuple(colors))


def _cycle_text(cd) -> str:
    pairs = ",".join(f"({length},{color})" for length, color in zip(cd.lengths, cd.cycle_colors))
    return f"cycles=[{pairs}]"


@settings(deadline=None, max_examples=100)
@given(group_elements())
def test_element_round_trips_property(case):
    params, g = case
    assert is_member(g, params)
    explicit = f"perm={list(g.perm)}; colors={list(g.colors)}"
    assert parse_element(explicit, params) == g
    doc = json.loads(json.dumps(element_to_json(g, params)))
    assert doc == {
        "m": params.m, "p": params.p, "n": params.n,
        "perm": list(g.perm), "colors": list(g.colors),
    }


@settings(deadline=None, max_examples=100)
@given(group_elements())
def test_cycle_form_round_trip_property(case):
    params, g = case
    cd = cycle_data(g, params)
    h = parse_element(_cycle_text(cd), params)
    # The cycle form gives the canonical member of g's class ...
    assert cycle_data(h, params).class_key == cd.class_key
    # ... which its own cycle form reproduces exactly, also through JSON.
    assert parse_element(_cycle_text(cycle_data(h, params)), params) == h
    assert element_to_json(h, params) == {
        "m": params.m, "p": params.p, "n": params.n,
        "perm": list(h.perm), "colors": list(h.colors),
    }


def _literal_eval_parse(text, params):
    """The old parse_element on ast.literal_eval: the reference on valid texts."""
    fields = {}
    for chunk in text.split(";"):
        if chunk.strip():
            key, _, value = chunk.partition("=")
            fields[key.strip()] = ast.literal_eval(value.strip())
    if "cycles" in fields:
        pairs = [(int(length), int(color)) for length, color in fields["cycles"]]
        return _canonical_from_cycles(pairs, params)
    return Element(
        tuple(int(v) for v in fields["perm"]),
        tuple(int(c) % params.m for c in fields["colors"]),
    )


_SPACE = st.text(alphabet=" \t\n", max_size=2)


@st.composite
def _sequence_text(draw, entries):
    """entries (texts) in () or [], with random whitespace and trailing comma.

    A one-entry () sequence always gets its trailing comma: literal_eval
    reads (1) as the integer 1, which parse_element does not.
    """
    opening, closing = draw(st.sampled_from(["()", "[]"]))
    trailing = draw(st.booleans()) or (opening == "(" and len(entries) == 1)
    parts = [draw(_SPACE) + entry + draw(_SPACE) for entry in entries]
    body = ",".join(parts) + ("," + draw(_SPACE) if trailing and entries else "")
    return opening + body + closing


def _int_text(draw, value):
    return ("+" if value >= 0 and draw(st.booleans()) else "") + str(value)


@settings(deadline=None, max_examples=200)
@given(group_elements(), st.data())
def test_parse_element_equals_the_literal_eval_reference(case, data):
    params, g = case
    draw = data.draw

    def color(c):  # any representative of c mod m, negative ones included
        return _int_text(draw, c + params.m * draw(st.integers(-2, 1)))

    if draw(st.booleans()):
        cd = cycle_data(g, params)
        pairs = [
            draw(_sequence_text([_int_text(draw, length), color(c)]))
            for length, c in zip(cd.lengths, cd.cycle_colors)
        ]
        fields = ["cycles=" + draw(_sequence_text(pairs))]
    else:
        fields = [
            "perm=" + draw(_sequence_text([_int_text(draw, v) for v in g.perm])),
            "colors=" + draw(_sequence_text([color(c) for c in g.colors])),
        ]
        if draw(st.booleans()):
            fields.reverse()
    text = ";".join(
        draw(_SPACE) + field.replace("=", draw(_SPACE) + "=" + draw(_SPACE), 1)
        + draw(_SPACE)
        for field in fields
    ) + draw(st.sampled_from(["", ";", "; "]))
    got = parse_element(text, params)
    assert got == _literal_eval_parse(text, params)
    if not text.lstrip().startswith("cycles"):
        assert got == g


def test_weight():
    params = GroupParams(4, 2, 2)
    assert weight(Element((2, 1), (3, 1)), params) == 0  # 4 = 0 mod 4
    assert weight(Element((1, 2), (2, 0)), params) == 2
