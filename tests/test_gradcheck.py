"""Finite-difference verification of every differentiable kernel."""

import numpy as np
import pytest

from patchbank import ops
from patchbank.gradcheck import finite_difference_check
from patchbank.network import Model, build_model, forward, tinynet_spec
from patchbank.tensor import Tensor, active_tape

TOL = 1e-5
EPS = 1e-4


def test_sum_gradient_is_exact():
    # Both sides take the sum of the (3, 4) output: all-ones seed, .data.sum().
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    f = lambda t: ops.scale(t, 1.0)
    assert finite_difference_check(f, x, eps=EPS) == pytest.approx(0.0, abs=1e-9)


def test_conv2d_wrt_input():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((2, 3, 3, 3)))
    f = lambda t: ops.conv2d(t, w, stride=2, pad=1)
    for shape in [(3, 5, 5), (2, 3, 5, 5)]:
        x = Tensor(rng.standard_normal(shape))
        assert finite_difference_check(f, x, eps=EPS) < TOL


def test_conv2d_wrt_weight():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((3, 5, 5)))
    w = Tensor(rng.standard_normal((2, 3, 3, 3)))
    for xs in [x, Tensor(rng.standard_normal((2, 3, 5, 5)))]:
        f = lambda t: ops.conv2d(xs, t, stride=1, pad=1)
        assert finite_difference_check(f, w, eps=EPS) < TOL


def test_conv2d_1x1_wrt_weight():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3, 3)))
    w = Tensor(rng.standard_normal((6, 4, 1, 1)))
    for xs in [x, Tensor(rng.standard_normal((3, 4, 3, 3)))]:
        f = lambda t: ops.conv2d(xs, t)
        assert finite_difference_check(f, w, eps=EPS) < TOL


def test_conv2d_relu_away_from_kink():
    rng = np.random.default_rng(21)
    x3 = Tensor(rng.standard_normal((3, 5, 5)))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    for x in [x3, Tensor(rng.standard_normal((2, 3, 5, 5)))]:
        # A step of EPS moves no pre-activation across 0.
        pre = ops.conv2d(x, w, stride=2, pad=1).data
        assert np.abs(pre).min() > 0.01
        f = lambda t: ops.conv2d(t, w, stride=2, pad=1, relu=True)
        assert finite_difference_check(f, x, eps=EPS) < TOL
        f = lambda t: ops.conv2d(x, t, stride=2, pad=1, relu=True)
        assert finite_difference_check(f, w, eps=EPS) < TOL


def test_global_max_pool_away_from_ties():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 4, 4)))  # continuous values: ties have measure zero
    f = lambda t: ops.global_max_pool(t)[0]
    assert finite_difference_check(f, x, eps=EPS) < TOL


def test_global_avg_pool():
    x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 5)))
    f = ops.global_avg_pool
    assert finite_difference_check(f, x, eps=EPS) < TOL


def test_cross_channel_avg_pool():
    x = Tensor(np.random.default_rng(6).standard_normal(12))
    f = lambda t: ops.softmax_cross_entropy(ops.cross_channel_avg_pool(t, 3), 1)
    assert finite_difference_check(f, x, eps=EPS) < TOL


def test_fully_connected_all_arguments():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal(8))
    w = Tensor(rng.standard_normal((3, 8)))
    b = Tensor(rng.standard_normal(3))
    for xs in [x, Tensor(rng.standard_normal((4, 8)))]:
        assert finite_difference_check(
            lambda t: ops.fully_connected(t, w, b), xs, eps=EPS) < TOL
        assert finite_difference_check(
            lambda t: ops.fully_connected(xs, t, b), w, eps=EPS) < TOL
        assert finite_difference_check(
            lambda t: ops.fully_connected(xs, w, t), b, eps=EPS) < TOL


def test_softmax_cross_entropy_composed_with_fc():
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((3, 8)))
    b = Tensor(rng.standard_normal(3))
    for shape, label in [((8,), 2), ((4, 8), np.array([2, 0, 1, 2]))]:
        x = Tensor(rng.standard_normal(shape))
        f = lambda t: ops.softmax_cross_entropy(ops.fully_connected(t, w, b), label)
        assert finite_difference_check(f, x, eps=EPS) < TOL
        f = lambda t: ops.softmax_cross_entropy(ops.fully_connected(x, t, b), label)
        assert finite_difference_check(f, w, eps=EPS) < TOL


def test_gmp_after_1x1_conv_unique_max():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((3, 4, 4)))
    w = Tensor(rng.standard_normal((2, 3, 1, 1)))
    f = lambda t: ops.softmax_cross_entropy(ops.global_max_pool(ops.conv2d(x, t))[0], 0)
    assert finite_difference_check(f, w, eps=EPS) < TOL


def test_bank_peaks_away_from_ties():
    rng = np.random.default_rng(14)
    w = Tensor(rng.standard_normal((6, 3, 1, 1)))
    for shape, label in [((3, 4, 4), 0), ((2, 3, 4, 4), np.array([0, 4]))]:
        x = Tensor(rng.standard_normal(shape))  # continuous values: ties have measure zero
        f = lambda t: ops.softmax_cross_entropy(ops.bank_peaks(t, w)[0], label)
        assert finite_difference_check(f, x, eps=EPS) < TOL
        f = lambda t: ops.softmax_cross_entropy(ops.bank_peaks(x, t)[0], label)
        assert finite_difference_check(f, w, eps=EPS) < TOL


def test_relu_away_from_kink():
    x = Tensor(np.array([-1.5, 2.0, 0.7, -0.3]))
    f = ops.relu
    assert finite_difference_check(f, x, eps=EPS) < TOL


def test_maxpool2d_away_from_ties():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, 6, 6)))
    f = lambda t: ops.maxpool2d(t, 2, 2)
    assert finite_difference_check(f, x, eps=EPS) < TOL


def test_maxpool2d_overlapping_windows():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 5, 5)))
    f = lambda t: ops.maxpool2d(t, 3, 1)
    assert finite_difference_check(f, x, eps=EPS) < TOL


def test_sampled_coordinate_subset():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((4, 8, 8)))
    f = ops.global_avg_pool
    err = finite_difference_check(f, x, eps=EPS, max_coords=16, rng=0)
    assert err < TOL


def _doubling(backward_factor):
    """t -> 2t, recorded with a backward that returns backward_factor * 2g."""
    def f(t):
        out = Tensor(2.0 * t.data)
        tape = active_tape()
        if tape is not None:  # the finite-difference passes run without one
            out.requires_grad = True
            tape.record((t,), out, lambda g: (backward_factor * 2.0 * g,))
        return out
    return f


# A doubled backward gives analytic 4 against numeric 2 at every coordinate: |4 - 2| / 4.
@pytest.mark.parametrize("backward_factor,err", [(1.0, 0.0), (2.0, 0.5)],
                         ids=["correct-backward", "doubled-backward"])
def test_non_scalar_output_checks_the_sum(backward_factor, err):
    x = Tensor(np.random.default_rng(13).standard_normal((3, 4)))
    got = finite_difference_check(_doubling(backward_factor), x, eps=EPS)
    assert got == pytest.approx(err, abs=1e-9)


@pytest.mark.parametrize("f", [
    lambda t: ops.scale(t, np.nan),  # NaN taped and numeric gradients
    lambda t: ops.scale(t, 1e10),    # finite taped gradient, inf - inf numerically
], ids=["nan-gradient", "inf-objective"])
def test_non_finite_gradient_fails_the_check(f):
    # The builtin max drops a NaN error, which read as a perfect 0.0.
    with np.errstate(over="ignore"):
        err = finite_difference_check(f, Tensor(np.full(3, 1e300)), eps=EPS)
    assert np.isnan(err) and not err < TOL


@pytest.mark.parametrize("kwargs,message", [
    ({"eps": np.nan}, "eps must be finite, got nan"),
    ({"eps": np.inf}, "eps must be finite, got inf"),
    ({"eps": 0.0}, "eps must be > 0, got 0.0"),
    ({"eps": -EPS}, "eps must be > 0, got -0.0001"),
    ({"eps": True}, "eps must be a real number, got True"),
    ({"eps": "1e-4"}, "eps must be a real number, got '1e-4'"),
    ({"eps": None}, "eps must be a real number, got None"),
    ({"eps": 10**400}, "eps must be finite, got an int too large for a float"),
    ({"max_coords": 0}, "max_coords must be >= 1, got 0"),
    ({"max_coords": -1}, "max_coords must be >= 1, got -1"),
    ({"max_coords": 2.5}, "max_coords must be an integer, got 2.5"),
    ({"max_coords": True}, "max_coords must be an integer, got True"),
], ids=["eps-nan", "eps-inf", "eps-zero", "eps-negative", "eps-bool", "eps-string", "eps-none", "eps-huge-int",
        "max-coords-zero",
        "max-coords-negative", "max-coords-float", "max-coords-bool"])
def test_bad_arguments_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        finite_difference_check(ops.relu, Tensor(np.ones(3)), **kwargs)


def test_objective_that_ignores_x_has_zero_gradient():
    c = Tensor(np.arange(3.0))
    assert finite_difference_check(lambda t: c, Tensor(np.ones(3)), eps=EPS) == 0.0


@pytest.mark.parametrize("x", [np.ones(3), np.float64(2.0)], ids=["vector", "scalar"])
def test_objective_that_returns_x_checks_its_all_ones_gradient(x):
    # x is no recorded op's output, so backward from it raised.
    assert finite_difference_check(lambda t: t, Tensor(x), eps=EPS) == pytest.approx(0.0, abs=1e-9)


def test_objective_that_returns_another_leaf_has_zero_gradient():
    # A leaf that requires grad is no recorded op's output either.
    w = Tensor(np.arange(3.0), requires_grad=True)
    assert finite_difference_check(lambda t: w, Tensor(np.ones(3)), eps=EPS) == 0.0


@pytest.mark.parametrize("pooling", ["gmp", "gap"])
def test_whole_model_three_stream_loss(pooling):
    """Every parameter of a small tinynet under L_G + L_P + 0.1 * L_side."""
    spec = tinynet_spec(3, 2, 16, pooling=pooling)
    model = build_model(spec, seed=0)
    rng = np.random.default_rng(15)
    images = rng.random((2, 3, 16, 16))
    labels = np.array([0, 2])

    def loss(params):
        out = forward(Model(spec, params), images)
        total = ops.add(ops.softmax_cross_entropy(out.g_logits, labels),
                        ops.softmax_cross_entropy(out.p_logits[0], labels))
        return ops.add(total, ops.scale(ops.softmax_cross_entropy(out.side_logits[0], labels), 0.1))

    assert len(model.params) == 9
    for i, (name, param) in enumerate(model.params.items()):
        f = lambda t: loss({**model.params, name: t})
        err = finite_difference_check(f, param, eps=1e-6, max_coords=4, rng=i)
        assert err < TOL, name
