import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evsynth.errors import ShapeError
from evsynth.loss import (LossConfig, count_loss, emd, emd_bidir, emd_polar,
                          loss_grad, total_loss)


def brute_force_emd(e, s):
    """Independent oracle: explicit prefix sums in pure python."""
    ce = cs = 0.0
    acc = 0.0
    for ei, si in zip(e, s):
        ce += float(ei)
        cs += float(si)
        acc += abs(cs - ce)
    return acc / len(e)


def brute_force_polar(e, s):
    def split(x, sign):
        return [max(sign * v, 0.0) for v in x]

    def bidir(a, b):
        return 0.5 * (brute_force_emd(a, b) + brute_force_emd(a[::-1], b[::-1]))

    return (bidir(split(e, 1), split(s, 1)) + bidir(split(e, -1), split(s, -1)))


class TestHandValues:
    def test_identical_is_zero(self):
        assert emd([1, 0, -1], [1, 0, -1]) == 0.0
        assert emd_polar([1, 0, -1], [1, 0, -1]) == 0.0

    def test_forward_examples(self):
        assert emd([1, 0, 0], [0, 0, 1]) == pytest.approx(2 / 3)
        assert emd([1, -1, 0], [0, 0, 0]) == pytest.approx(1 / 3)

    def test_bidirectional_examples(self):
        assert emd_bidir([1, 0, 0], [0, 0, 1]) == pytest.approx(2 / 3)
        assert emd_bidir([1, 0, 0, 0], [0, 0, 0, 0]) == pytest.approx(5 / 8)

    def test_polar_examples(self):
        assert emd_polar([1, 0, -1], [0, 1, -1]) == pytest.approx(1 / 3)
        assert emd_polar([1], [-1]) == pytest.approx(2.0)

    def test_count_examples(self):
        assert count_loss([1, 0, 0], [1, -1, 0]) == pytest.approx(1.0)
        assert count_loss([1, -1], [1, -1]) == 0.0


def test_forward_only_rewards_late_hallucination_bidir_does_not():
    e = [1.0, 0.0, 0.0, 0.0]
    none = [0.0, 0.0, 0.0, 0.0]
    late = [0.0, 0.0, 0.0, 1.0]
    # forward-only: inventing a late event looks better than admitting a miss
    assert emd(e, late) < emd(e, none)
    # bidirectional: the late fake is penalized
    assert emd_bidir(e, late) > emd_bidir(e, none)


def test_length_mismatch():
    with pytest.raises(ShapeError):
        emd([1, 0], [1, 0, 0])
    with pytest.raises(ShapeError):
        total_loss(np.zeros((2, 4)), np.zeros((3, 4)))


@given(arrays(np.int8, (16,), elements=st.integers(-1, 1)),
       arrays(np.int8, (16,), elements=st.integers(-1, 1)))
def test_zero_iff_equal_prefixes(e, s):
    val = emd(e.astype(float), s.astype(float))
    if np.array_equal(np.cumsum(e), np.cumsum(s)):
        assert val == 0.0
    else:
        assert val > 0.0


@given(arrays(np.int8, (12,), elements=st.integers(-1, 1)),
       arrays(np.int8, (12,), elements=st.integers(-1, 1)))
def test_polarity_relabeling_symmetry(e, s):
    a = emd_polar(e.astype(float), s.astype(float))
    b = emd_polar(-e.astype(float), -s.astype(float))
    assert a == pytest.approx(b, abs=1e-12)


@given(arrays(np.float64, (10,), elements=st.floats(-1, 1)),
       st.permutations(range(10)))
def test_count_loss_permutation_invariant(s, perm):
    e = np.zeros(10)
    assert count_loss(e, s) == pytest.approx(count_loss(e, s[list(perm)]))


def test_matches_brute_force_oracle(rng):
    for _ in range(1000):
        k = int(rng.integers(1, 33))
        e = rng.integers(-1, 2, size=k).astype(float)
        s = rng.uniform(-1.5, 1.5, size=k)
        assert abs(emd(e, s) - brute_force_emd(e, s)) <= 1e-12
        assert abs(emd_polar(e, s) - brute_force_polar(list(e), list(s))) <= 1e-12


def test_total_loss_composition():
    cfg = LossConfig(0.1)
    rep = total_loss(np.array([[1.0, 0, -1]]), np.array([[0.0, 1, -1]]), cfg)
    assert rep.emd == pytest.approx(1 / 3)
    assert rep.count == pytest.approx(0.0)
    assert rep.total == pytest.approx(rep.emd + 0.1 * rep.count)
    assert rep.per_pixel.shape == (1,)

    zero_cfg = LossConfig(0.0)
    rep0 = total_loss(np.array([[1.0, 0, 0]]), np.array([[0.0, 0, 1]]), zero_cfg)
    assert rep0.total == rep0.emd


def test_total_loss_nonnegative(rng):
    e = rng.integers(-1, 2, size=(20, 15)).astype(float)
    s = rng.uniform(-1, 1, size=(20, 15))
    rep = total_loss(e, s)
    assert rep.emd >= 0 and rep.count >= 0 and rep.total >= 0
    assert np.all(rep.per_pixel >= 0)


def test_grad_zero_at_match():
    e = np.array([[1.0, -1, 0, 1]])
    assert not loss_grad(e, e.copy()).any()


def test_grad_hand_direction():
    # e has one early event, s none: pushing s_1 up must reduce the loss
    g = loss_grad(np.array([[1.0, 0, 0]]), np.array([[0.0, 0, 0]]),
                  LossConfig(0.0))
    assert g[0, 0] < 0
    # forward-only component at s_1 is (1/3) * sum of three -1 signs = -1
    assert g[0, 0] == pytest.approx(0.5 * (-1.0 + -1 / 3))  # bidir average


def test_grad_matches_finite_differences(rng):
    cfg = LossConfig(0.1)
    for _ in range(20):
        k = 24
        e = rng.integers(-1, 2, size=(3, k)).astype(float)
        s = rng.uniform(-1, 1, size=(3, k))
        s[np.abs(s) < 0.1] += 0.2  # stay clear of the channel-split kink
        # keep cumulative-sum differences away from sign flips
        if min(_kink_margin(e, s), 0.05 * abs(np.abs(s).sum() - np.abs(e).sum())) < 1e-4:
            continue
        g = loss_grad(e, s, cfg)
        eps = 1e-7
        fd = np.zeros_like(s)
        for i in range(s.shape[0]):
            for j in range(k):
                sp, sm = s.copy(), s.copy()
                sp[i, j] += eps
                sm[i, j] -= eps
                fd[i, j] = (total_loss(e, sp, cfg).total
                            - total_loss(e, sm, cfg).total) / (2 * eps)
        assert np.abs(g - fd).max() <= 1e-4 * (np.abs(fd).max() + 1e-12)


def _kink_margin(e, s):
    pos = np.minimum(np.abs(np.cumsum(np.maximum(s, 0) - np.maximum(e, 0), axis=-1)).min(),
                     np.abs(np.cumsum(np.maximum(s, 0)[..., ::-1] - np.maximum(e, 0)[..., ::-1], axis=-1)).min())
    neg = np.minimum(np.abs(np.cumsum(np.maximum(-s, 0) - np.maximum(-e, 0), axis=-1)).min(),
                     np.abs(np.cumsum(np.maximum(-s, 0)[..., ::-1] - np.maximum(-e, 0)[..., ::-1], axis=-1)).min())
    return min(pos, neg)
