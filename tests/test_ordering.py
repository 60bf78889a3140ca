import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bci.model import DataTypeSpec
from bci.ordering import (
    DominanceRelation,
    OrderError,
    build_relation,
    is_complete,
    is_quasitransitive,
    layer_partition,
)


def rel(rows):
    return DominanceRelation(np.array(rows, dtype=bool))


def test_relation_must_be_square_and_reflexive():
    with pytest.raises(OrderError):
        rel([[True, False]])
    with pytest.raises(OrderError):
        rel([[True, False], [False, False]])


def test_a_relation_needs_at_least_one_type():
    # a 0 x 0 relation was once complete and quasitransitive with no layers,
    # where a scenario with no types is rejected
    with pytest.raises(OrderError, match="at least one type"):
        DominanceRelation(np.zeros((0, 0), dtype=bool))
    with pytest.raises(OrderError, match="at least one type"):
        build_relation(())


def test_relation_copies_the_callers_matrix():
    # the relation neither freezes the caller's array nor follows later
    # writes to it, through a view or otherwise
    own = np.eye(2, dtype=bool)
    r = DominanceRelation(own)
    own[0, 1] = True
    assert own.flags.writeable and not r.matrix[0, 1]
    base = np.array([True, False, False, True])
    r = DominanceRelation(base.reshape(2, 2))
    base[1] = base[2] = True
    assert not is_complete(r)
    with pytest.raises(ValueError):
        r.matrix[0, 1] = True


def test_build_relation_reads_data_coverage():
    types = (
        DataTypeSpec(("x1",), ("x1", "x2")),
        DataTypeSpec(("x2",), ("x2",)),
        DataTypeSpec((), ()),
    )
    r = build_relation(types)
    # i covers j iff D_i includes C_j
    assert r.matrix[0, 1] and r.matrix[0, 2]
    assert not r.matrix[1, 0]
    assert r.matrix[1, 2] and not r.matrix[2, 0]
    assert is_complete(r) and is_quasitransitive(r)
    assert layer_partition(r).layers == ((0,), (1,), (2,))


def test_two_blind_like_types_tie_into_one_layer():
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec(("x1",), ("x1", "x2")))
    r = build_relation(types)
    assert r.matrix[0, 1] and r.matrix[1, 0]
    assert layer_partition(r).layers == ((0, 1),)


def test_incomplete_pair_rejected_by_layers():
    types = (DataTypeSpec(("x1",), ("x1",)), DataTypeSpec(("x2",), ("x2",)))
    r = build_relation(types)
    assert not is_complete(r)
    with pytest.raises(OrderError):
        layer_partition(r)


def test_strict_cycle_is_complete_but_not_quasitransitive():
    # the three-type loop: each covers the next one's conditioner only
    types = (
        DataTypeSpec(("x1",), ("x1", "x2")),
        DataTypeSpec(("x2",), ("x2", "x3")),
        DataTypeSpec(("x3",), ("x1", "x3")),
    )
    r = build_relation(types)
    assert is_complete(r)
    assert not is_quasitransitive(r)
    with pytest.raises(OrderError):
        layer_partition(r)


def test_layers_match_brute_force_on_randoms():
    rnd = oracles.seeded_random(991)
    for trial in range(300):
        n = rnd.randint(1, 7)
        matrix = oracles.random_complete_qt_matrix(n, rnd)
        r = rel(matrix)
        assert is_complete(r) and is_quasitransitive(r), trial
        part = layer_partition(r)
        assert part.layers == oracles.brute_layers(matrix), trial
        assert oracles.layering_is_valid(matrix, part.layers), trial


def test_layering_is_canonical_among_valid_ones():
    # validity alone does not pin the partition down (a tied element can
    # sometimes ride in either of two adjacent layers); the implementation
    # must return the greedy-maximal one: fewest layers, and a first layer
    # containing every element any valid layering puts first
    rnd = oracles.seeded_random(1213)
    checked = 0
    for _ in range(60):
        n = rnd.randint(1, 5)
        matrix = oracles.random_complete_qt_matrix(n, rnd)
        valid = oracles.all_valid_layerings(matrix)
        got = layer_partition(rel(matrix)).layers
        assert got in valid
        assert len(got) == min(len(p) for p in valid)
        for p in valid:
            assert set(p[0]) <= set(got[0])
            checked += 1
    assert checked >= 60


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 7))
def test_random_relations_always_layer(seed, n):
    rnd = oracles.seeded_random(seed)
    matrix = oracles.random_complete_qt_matrix(n, rnd)
    part = layer_partition(rel(matrix))
    assert sum(len(layer) for layer in part.layers) == n
    flat = [i for layer in part.layers for i in layer]
    assert sorted(flat) == list(range(n))
