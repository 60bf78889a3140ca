import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bci.tables import JointTable, TableError, VariableSpace


def space_uv():
    return VariableSpace((("u", 2), ("v", 3)))


def test_space_rejects_duplicates_and_bad_cards():
    with pytest.raises(TableError):
        VariableSpace((("u", 2), ("u", 2)))
    with pytest.raises(TableError):
        VariableSpace((("u", 0),))
    with pytest.raises(TableError):
        VariableSpace((("u", 2.0),))  # non-integer cardinality


def test_joint_requires_normalized_nonnegative():
    sp = space_uv()
    with pytest.raises(TableError):
        JointTable(sp, np.full((2, 3), 0.2))  # sums to 1.2
    bad = np.array([[0.5, 0.6, 0.0], [0.0, -0.1, 0.0]])
    with pytest.raises(TableError):
        JointTable(sp, bad)


def test_marginalize_and_condition_against_hand_sums():
    sp = space_uv()
    probs = np.array([[0.1, 0.2, 0.3], [0.15, 0.05, 0.2]])
    jt = JointTable(sp, probs)
    mu = jt.marginalize(["u"])
    assert mu.space.names == ("u",)
    assert np.allclose(mu.probs, [0.6, 0.4])
    mv = jt.marginalize(["v"])
    assert np.allclose(mv.probs, [0.25, 0.25, 0.5])
    with pytest.raises(TableError):
        jt.marginalize(["w"])


def test_empty_space_scalar_table():
    sp = VariableSpace(())
    jt = JointTable(sp, np.array(1.0))
    assert sp.n_cells == 1 and jt.probs.shape == ()
    assert float(jt.marginalize([]).probs) == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_marginalization_commutes(seed):
    rng = np.random.default_rng(seed)
    sp = VariableSpace((("p", 2), ("q", 2), ("r", 3)))
    raw = rng.random((2, 2, 3))
    jt = JointTable(sp, raw / raw.sum())
    one_step = jt.marginalize(["p"])
    two_step = jt.marginalize(["p", "r"]).marginalize(["p"])
    assert np.allclose(one_step.probs, two_step.probs, atol=1e-12)
