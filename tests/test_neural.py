"""Network mechanics: forward pass, derivatives, training, persistence."""

import copy
import math
import random
import warnings

import numpy as np
import pytest

from pswm import (
    DataError,
    Network,
    TrainingExample,
    backprop,
    error,
    forward,
    gradient_check,
    gradient_check_suite,
    init_weights,
    load_model,
    save_model,
    sigmoid,
    train,
)
from pswm import neural
from pswm.neural import GRADIENT_TOLERANCE, MODEL_MAGIC


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_known_value(self):
        assert sigmoid(0.25) == pytest.approx(1.0 / (1.0 + math.exp(-0.25)), rel=1e-15)

    def test_symmetry(self):
        for x in (-3.0, -0.7, 0.2, 5.0):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, rel=1e-12)

    def test_saturation(self):
        assert sigmoid(40.0) > 0.999999
        assert sigmoid(-40.0) < 1e-6

    def test_monotone(self):
        ys = [sigmoid(-6.0 + 12.0 * i / 199) for i in range(200)]
        assert all(a < b for a, b in zip(ys, ys[1:]))


class TestNetwork:
    def test_shapes_accepted(self):
        # one list per unit of incoming weights: layer_sizes[k] sources, then the bias
        net = Network([2, 3, 1], [[[0.0] * 3 for _ in range(3)], [[0.0] * 4]])
        assert net.layer_sizes == [2, 3, 1]

    def test_weights_become_new_float_lists(self):
        units = [[1, 2]]
        net = Network([1, 1], [units])
        units[0][0] = 5
        assert net.weights == [[[1.0, 2.0]]]
        assert all(type(x) is float for x in net.weights[0][0])

    def test_wrong_matrix_count(self):
        with pytest.raises(ValueError, match="weight matrices"):
            Network([2, 3, 1], [[[0.0] * 3 for _ in range(3)]])

    def test_wrong_shape(self):
        # missing the bias weight
        with pytest.raises(ValueError, match=r"weight matrix 0 unit 0: weights have shape \(2,\), expected \(3,\)"):
            Network([2, 1], [[[0.0, 0.0]]])

    def test_wrong_unit_count(self):
        with pytest.raises(ValueError, match="weight matrix 0 has 2 units, expected 1"):
            Network([2, 1], [[[0.0] * 3, [0.0] * 3]])

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError, match="at least two layers"):
            Network([3], [])

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValueError):
            Network([2, 0], [[]])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Network([2, 1], [[[math.nan, 0.0, 0.0]]])

    def test_equality(self):
        a = init_weights([2, 2, 1], 5)
        b = init_weights([2, 2, 1], 5)
        c = init_weights([2, 2, 1], 6)
        assert a == b
        assert a != c

    def test_unequal_to_other_types(self):
        net = init_weights([2, 1], 0)
        assert net != "Network(layer_sizes=[2, 1])"
        assert net != (net.layer_sizes, net.weights)

    def test_repr_shows_sizes_only(self):
        assert repr(init_weights([2, 4, 1], 0)) == "Network(layer_sizes=[2, 4, 1])"


class TestForward:
    def test_single_connection_oracle(self):
        # one input, one output: x = 0.5 * 0.5 + 1.0 * 0.0 = 0.25
        net = Network([1, 1], [[[0.5, 0.0]]])
        acts = forward(net, [0.5])
        assert len(acts) == 2
        assert acts[0] == [0.5]
        assert acts[1][0] == pytest.approx(1.0 / (1.0 + math.exp(-0.25)), rel=1e-15)

    def test_bias_alone(self):
        # zero input weight: output is sigmoid of the bias weight
        net = Network([1, 1], [[[0.0, -1.5]]])
        acts = forward(net, [0.9])
        assert acts[1][0] == pytest.approx(1.0 / (1.0 + math.exp(1.5)), rel=1e-15)

    def test_all_zero_weights_give_half_everywhere(self):
        net = Network([3, 2, 2], [[[0.0] * 4, [0.0] * 4], [[0.0] * 3, [0.0] * 3]])
        acts = forward(net, [0.9, -4.0, 17.0])
        assert acts[1] == [0.5, 0.5]
        assert acts[2] == [0.5, 0.5]

    def test_two_layer_hand_computation(self):
        w0 = [[0.1, 0.3, 0.05], [-0.2, 0.4, -0.05]]
        w1 = [[0.7, -0.6, 0.2]]
        net = Network([2, 2, 1], [w0, w1])
        x = [0.5, -1.0]
        h0 = sigmoid(0.5 * 0.1 + -1.0 * 0.3 + 0.05)
        h1 = sigmoid(0.5 * -0.2 + -1.0 * 0.4 + -0.05)
        out = sigmoid(h0 * 0.7 + h1 * -0.6 + 0.2)
        acts = forward(net, x)
        assert acts[1] == pytest.approx([h0, h1], rel=1e-15)
        assert acts[2] == pytest.approx([out], rel=1e-15)

    def test_activities_in_unit_interval(self):
        net = init_weights([3, 4, 2], 9)
        acts = forward(net, [10.0, -10.0, 0.1])
        for layer in acts[1:]:
            assert all(0.0 < a < 1.0 for a in layer)

    def test_returns_float_lists_for_array_input(self):
        acts = forward(init_weights([2, 3, 1], 9), np.array([0.25, 0.5]))
        assert acts[0] == [0.25, 0.5]
        assert all(type(a) is list and all(type(x) is float for x in a) for a in acts)

    @pytest.mark.parametrize("big, expected", [(1e300, 1.0), (-1e300, 0.0)])
    def test_huge_weights_saturate_exactly_without_warnings(self, big, expected):
        # Every total input is about +-1e300: e^-x underflows to 0.0 or overflows.
        net = Network([2, 3, 1], [[[big] * 3 for _ in range(3)], [[big] * 4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acts = forward(net, [0.5, 0.25])
        assert acts[1:] == [[expected] * 3, [expected]]

    def test_input_size_mismatch(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match="input layer size"):
            forward(net, [1.0, 2.0, 3.0])


class TestError:
    def test_half_squared_distance(self):
        assert error([1.0], [0.0]) == 0.5
        assert error([1.0, 1.0], [0.0, 0.0]) == 1.0
        assert error([0.5], [0.0]) == 0.125

    def test_zero_at_target(self):
        assert error([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_zero_only_at_target(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            y = rng.uniform(0, 1, size=3).tolist()
            d = list(y)
            if rng.uniform() < 0.5:
                d[int(rng.integers(0, 3))] += 1e-6
            e = error(y, d)
            assert e >= 0.0
            assert (e == 0.0) == (y == d)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            error([1.0, 2.0], [1.0])


class TestBackprop:
    def test_single_connection_hand_oracle(self):
        # activity 0.8 vs desired 0.3 through one weight:
        #   ea_out = 0.8 - 0.3
        #   ei = ea * 0.8 * 0.2
        #   ew = ei * source activity (1.0 for both the unit and the bias)
        net = Network([1, 1], [[[0.7, 0.1]]])
        acts = [[1.0], [0.8]]
        grads = backprop(net, acts, [0.3])
        ea_out = 0.8 - 0.3
        ei = ea_out * 0.8 * (1.0 - 0.8)
        assert grads == [[pytest.approx([ei, ei], rel=1e-15)]]

    def test_bias_row_uses_unit_activity(self):
        net = Network([2, 1], [[[0.5, -0.5, 0.25]]])
        acts = forward(net, [0.4, 0.6])
        grads = backprop(net, acts, [1.0])
        out = acts[-1][0]
        ei = (out - 1.0) * out * (1.0 - out)
        # source weights scale ei by their activities; the bias weight's derivative is ei itself
        assert grads[0][0] == pytest.approx([0.4 * ei, 0.6 * ei, ei], rel=1e-12)

    def test_gradient_shapes_mirror_weights(self):
        net = init_weights([3, 5, 2], 3)
        acts = forward(net, [0.1, 0.2, 0.3])
        grads = backprop(net, acts, [0.0, 1.0])
        assert len(grads) == 2
        for units, g in zip(net.weights, grads):
            assert [len(w) for w in g] == [len(w) for w in units]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for sizes in ([1, 1], [2, 3, 1], [4, 5, 3], [3, 1, 4]):
            net = init_weights(sizes, int(rng.integers(0, 10_000)))
            features = rng.uniform(-1.0, 1.0, size=sizes[0])
            desired = rng.uniform(0.0, 1.0, size=sizes[-1])
            assert gradient_check(net, features, desired) < 1e-6

    def test_zero_gradient_at_exact_target(self):
        net = init_weights([2, 2, 1], 1)
        acts = forward(net, [0.3, 0.9])
        grads = backprop(net, acts, acts[-1])
        for layer in grads:
            for g in layer:
                assert g == pytest.approx([0.0] * len(g), abs=1e-15)

    def test_saturated_units_have_zero_input_derivative(self):
        # the sigmoid slope factor y(1-y) kills ei at activities of exactly 0 or 1
        net = Network([1, 2, 1], [[[0.3, 0.3], [0.3, 0.3]], [[0.3, 0.3, 0.3]]])
        acts = [[1.0], [0.0, 1.0], [1.0]]
        grads = backprop(net, acts, [0.0])
        # each unit's ei is the derivative of its bias weight, the last one
        assert [g[-1] for g in grads[0]] == [0.0, 0.0]
        assert grads[1] == [[0.0, 0.0, 0.0]]

    def test_chain_consistency_on_1_1_1(self):
        w0 = [[0.4, -0.1]]
        w1 = [[-0.9, 0.3]]
        net = Network([1, 1, 1], [w0, w1])
        acts = forward(net, [0.6])
        h, out = acts[1][0], acts[2][0]
        desired = 0.2
        grads = backprop(net, acts, [desired])
        # hand-composed chain: ea_out -> ei_out -> ea_hidden -> ei_hidden -> ew
        ea_out = out - desired
        ei_out = ea_out * out * (1.0 - out)
        ea_hidden = w1[0][0] * ei_out
        ei_hidden = ea_hidden * h * (1.0 - h)
        assert grads[1][0][0] == pytest.approx(h * ei_out, rel=1e-14)
        assert grads[1][0][1] == pytest.approx(ei_out, rel=1e-14)
        assert grads[0][0][0] == pytest.approx(0.6 * ei_hidden, rel=1e-14)
        assert grads[0][0][1] == pytest.approx(ei_hidden, rel=1e-14)

    def test_wrong_activation_count(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match="activation vectors"):
            backprop(net, [[1.0, 2.0]], [0.5])

    def test_wrong_activation_shape(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match=r"activation vector 0: activities have shape \(3,\), expected \(2,\)"):
            backprop(net, [[1.0, 2.0, 3.0], [0.5]], [0.5])

    def test_wrong_desired_shape(self):
        net = init_weights([2, 1], 0)
        acts = forward(net, [0.1, 0.2])
        with pytest.raises(ValueError, match="desired"):
            backprop(net, acts, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where, message", [
        (0, r"activation vector 0: activities contain non-finite values"),
        (1, r"activation vector 1: activities contain non-finite values"),
        ("desired", r"desired values contain non-finite values"),
    ])
    def test_non_finite_rejected(self, bad, where, message):
        net = init_weights([2, 1], 0)
        acts = forward(net, [0.1, 0.2])
        desired = [0.5]
        if where == "desired":
            desired = [bad]
        else:
            acts[where][0] = bad
        with pytest.raises(ValueError, match=message):
            backprop(net, acts, desired)


def _descend(net, grads, learning_rate):
    """One descent step, written out as `train` takes it: every weight moves against its derivative."""
    for units, layer in zip(net.weights, grads):
        for w, g in zip(units, layer):
            for i, gi in enumerate(g):
                w[i] -= learning_rate * gi


class TestDescentStep:
    def test_step_lowers_error(self):
        net = init_weights([2, 3, 1], 12)
        features, desired = [0.2, 0.8], [1.0]
        acts = forward(net, features)
        before = error(acts[-1], desired)
        _descend(net, backprop(net, acts, desired), 0.5)
        after = error(forward(net, features)[-1], desired)
        assert after < before


AND_DATA = [
    TrainingExample([0.0, 0.0], [0.0]),
    TrainingExample([0.0, 1.0], [0.0]),
    TrainingExample([1.0, 0.0], [0.0]),
    TrainingExample([1.0, 1.0], [1.0]),
]


class TestTrain:
    def test_error_trace_shrinks(self):
        net = init_weights([2, 2, 1], 4)
        _, trace = train(net, AND_DATA, epochs=400, learning_rate=0.5, seed=4)
        assert len(trace) == 400
        assert trace[-1] < trace[0]

    def test_deterministic_given_seed(self):
        a = init_weights([2, 3, 1], 8)
        b = init_weights([2, 3, 1], 8)
        a, trace_a = train(a, AND_DATA, epochs=60, learning_rate=0.5, seed=99)
        b, trace_b = train(b, AND_DATA, epochs=60, learning_rate=0.5, seed=99)
        assert trace_a == trace_b
        assert a.weights == b.weights

    def test_shuffle_seed_matters(self):
        a = init_weights([2, 3, 1], 8)
        b = init_weights([2, 3, 1], 8)
        a, _ = train(a, AND_DATA, epochs=10, learning_rate=0.5, seed=1)
        b, _ = train(b, AND_DATA, epochs=10, learning_rate=0.5, seed=2)
        assert a.weights != b.weights

    def test_zero_epochs_is_identity(self):
        net = init_weights([2, 2, 1], 3)
        snapshot = copy.deepcopy(net.weights)
        out, trace = train(net, AND_DATA, epochs=0, learning_rate=0.5, seed=0)
        assert trace == []
        assert out.weights == snapshot

    def test_negative_epochs_rejected(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match="non-negative"):
            train(net, AND_DATA, epochs=-1, learning_rate=0.5, seed=0)

    def test_empty_data_rejected_when_training(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match="empty"):
            train(net, [], epochs=1, learning_rate=0.5, seed=0)

    def test_empty_data_allowed_for_zero_epochs(self):
        net = init_weights([2, 1], 0)
        _, trace = train(net, [], epochs=0, learning_rate=0.5, seed=0)
        assert trace == []

    def test_non_finite_weights_raise_instead_of_being_returned(self):
        # Huge finite features times a huge learning rate drive the first update past the float range.
        net = Network([2, 1, 1], [[[0.5, 0.5, 0.0]], [[1.0, 0.0]]])
        with pytest.raises(ValueError, match="non-finite weights after epoch 1"):
            train(net, [TrainingExample([1e300, -1e300], [0.0])], epochs=1, learning_rate=1e10, seed=0)

    def test_sigmoid_overflow_saturates_without_warnings(self):
        net = init_weights([2, 4, 1], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            net, trace = train(net, AND_DATA, epochs=5, learning_rate=1e300, seed=0)
        assert all(math.isfinite(x) for units in net.weights for w in units for x in w)
        assert len(trace) == 5


def _reference_train(net, data, epochs, learning_rate, seed):
    """`train` written with the public, validated functions, then the descent step on the weight lists.

    Each epoch shuffles one order in place, Fisher-Yates from the top on ``random()`` draws.
    """
    draw = random.Random(seed).random
    order = list(range(len(data)))
    trace = []
    for _ in range(epochs):
        for i in range(len(order) - 1, 0, -1):
            j = int(draw() * (i + 1))
            order[i], order[j] = order[j], order[i]
        total = 0.0
        for i in order:
            activations = forward(net, data[i].features)
            total += error(activations[-1], data[i].desired)
            _descend(net, backprop(net, activations, data[i].desired), learning_rate)
        trace.append(total / len(data))
    return net, trace


def _bits(net):
    return [[[x.hex() for x in w] for w in units] for units in net.weights]


class TestTrainKernel:
    @pytest.mark.parametrize("sizes", [[1, 1], [2, 1, 1], [2, 4, 1], [2, 9, 1], [3, 5, 2], [2, 3, 2, 1]])
    def test_matches_public_functions_bitwise(self, sizes):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            data = [
                TrainingExample(rng.uniform(-1.0, 1.0, sizes[0]).tolist(), rng.uniform(0.0, 1.0, sizes[-1]).tolist())
                for _ in range(int(rng.integers(1, 8)))
            ]
            for epochs in (1, 4, 20):
                expected, expected_trace = _reference_train(init_weights(sizes, seed), data, epochs, 0.7, seed)
                got, trace = train(init_weights(sizes, seed), data, epochs, 0.7, seed)
                assert trace == expected_trace
                assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("bad, match", [
        (TrainingExample([0.5], [1.0]), r"example 5: features have shape \(1,\), expected \(2,\)"),
        (TrainingExample([0.5, 0.5, 0.5], [1.0]), "example 5: features"),
        (TrainingExample([0.5, 0.5], [1.0, 0.0]), r"example 5: desired have shape \(2,\), expected \(1,\)"),
        (TrainingExample([0.5, 0.5], []), "example 5: desired"),
        (TrainingExample([0.5, math.nan], [1.0]), "example 5: features contain non-finite"),
        (TrainingExample([math.inf, 0.5], [1.0]), "example 5: features contain non-finite"),
        (TrainingExample([0.5, 0.5], [-math.inf]), "example 5: desired contain non-finite"),
        (TrainingExample([0.5, "x"], [1.0]), "example 5: features are not numbers"),
        (TrainingExample([0.5, 0.5], [1.5]), r"example 5: desired values must lie in \[0, 1\], got \[1.5\]"),
        (TrainingExample([0.5, 0.5], [-0.1]), r"example 5: desired values must lie in \[0, 1\], got \[-0.1\]"),
    ])
    def test_bad_late_example_raises_before_any_weight_changes(self, bad, match):
        net = init_weights([2, 4, 1], 0)
        before = copy.deepcopy(net.weights)
        data = AND_DATA + [TrainingExample([0.5, 0.5], [1.0]), bad]
        with pytest.raises(ValueError, match=match):
            train(net, data, epochs=3, learning_rate=0.5, seed=0)
        assert net.weights == before

    def test_non_positive_learning_rate_raises_before_any_weight_changes(self):
        for lr in (0.0, -0.5, math.inf, math.nan):
            net = init_weights([2, 4, 1], 0)
            before = copy.deepcopy(net.weights)
            with pytest.raises(ValueError, match="learning rate must be positive and finite"):
                train(net, AND_DATA, epochs=3, learning_rate=lr, seed=0)
            assert net.weights == before


class TestInitWeights:
    def test_deterministic(self):
        assert init_weights([3, 4, 2], 21) == init_weights([3, 4, 2], 21)

    def test_range(self):
        net = init_weights([6, 8, 4], 2)
        assert all(-0.5 <= x <= 0.5 for units in net.weights for w in units for x in w)

    def test_shapes_include_bias_row(self):
        net = init_weights([2, 5, 1], 0)
        assert [[len(w) for w in units] for units in net.weights] == [[3] * 5, [6]]

    def test_units_hold_the_transposed_source_row_draws(self):
        # The draws run in the model file's row order: source rows ascending, bias row last.
        draw = random.Random(4).random
        rows = [[[-0.5 + draw() for _ in range(b)] for _ in range(a + 1)] for a, b in [(2, 2), (2, 1)]]
        assert init_weights([2, 2, 1], 4).weights == [[list(unit) for unit in zip(*r)] for r in rows]

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_weights([3], 0)
        with pytest.raises(ValueError):
            init_weights([2, 0, 1], 0)

    def test_layer_too_large_to_hold_fails_before_drawing(self):
        with pytest.raises(MemoryError):
            init_weights([1, 10**15, 1], 0)


class TestSeededDraws:
    # Literal values, so a Python release whose random() drew otherwise would fail here.
    # Per seed: init_weights([2, 2, 1], seed).weights, the first epoch's order of ten
    # examples, and gradient_check_suite's first three (sizes, network seed) draws.
    PINNED = {
        0: (
            [[[0.3444218515250481, -0.079428419169155, 0.01127472136860852],
              [0.2579544029403025, -0.24108324970703665, -0.09506586254958571]],
             [[0.2837985890347726, -0.19668727392107255, -0.02340304584764419]]],
            [9, 4, 0, 5, 2, 7, 1, 3, 6, 8],
            [([4, 3, 2], 2195908207), ([2, 4, 4], 1075916543), ([4, 3, 1], 1864753834)],
        ),
        4: (
            [[[-0.2639519102625655, -0.10394175738931899, -0.4334849043204101],
              [-0.3968339657692842, -0.3450277291975897, -0.09840898551492516]],
             [[0.4179550430877189, 0.3004523514958085, 0.26516260250543844]]],
            [5, 6, 4, 7, 9, 8, 1, 3, 0, 2],
            [([1, 2], 665600834), ([4, 2, 3], 1188342904), ([2, 4], 3143463838)],
        ),
        42: (
            [[[0.13942679845788375, -0.22497068163088074, 0.2364712141640124],
              [-0.47498924477733306, -0.27678926185117725, 0.1766994874229113]],
             [[0.3921795677048454, -0.41306116737058385, -0.07807818031472957]]],
            [9, 7, 8, 5, 3, 4, 1, 2, 0, 6],
            [([1, 2, 2], 3163119779), ([1, 2], 2170484435), ([2, 3, 5], 27911960)],
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_draws(self, seed, monkeypatch):
        weights, order, networks = self.PINNED[seed]
        assert init_weights([2, 2, 1], seed).weights == weights

        visited = []
        step = neural._step

        def recording_step(layers, inputs, desired, learning_rate):
            visited.append(int(inputs[0]))
            return step(layers, inputs, desired, learning_rate)

        # A [2, H, 1] net trains through its own epoch loop, so the spy runs on a shape `_step` serves.
        monkeypatch.setattr(neural, "_step", recording_step)
        data = [TrainingExample([float(k)], [0.0]) for k in range(10)]
        train(init_weights([1, 1], 0), data, epochs=1, learning_rate=0.5, seed=seed)
        assert visited == order

        drawn = []

        def recording_init(sizes, network_seed):
            drawn.append((sizes, network_seed))
            return init_weights(sizes, network_seed)

        monkeypatch.setattr(neural, "init_weights", recording_init)
        gradient_check_suite(seed)
        assert drawn[:3] == networks

    @pytest.mark.parametrize("call", [
        lambda seed: init_weights([2, 2, 1], seed),
        lambda seed: train(init_weights([2, 2, 1], 0), AND_DATA, epochs=1, learning_rate=0.5, seed=seed),
        gradient_check_suite,
    ], ids=["init_weights", "train", "gradient_check_suite"])
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_int(self, seed, call):
        # random.Random alone would seed with abs(-1) and hash "3".
        with pytest.raises(ValueError, match="seed"):
            call(seed)


class TestModelPersistence:
    def test_roundtrip(self, tmp_path):
        net = init_weights([2, 4, 1], 13)
        path = tmp_path / "model"
        save_model(net, path)
        assert load_model(path) == net

    def test_file_layout(self, tmp_path):
        net = init_weights([2, 2, 1], 1)
        path = tmp_path / "model"
        save_model(net, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == MODEL_MAGIC
        assert lines[1] == "2 2 1"
        assert len(lines) == 2 + 3 + 3  # header + (2+1) rows + (2+1) rows
        # row i holds source i's weight into each target unit; the bias row is last
        assert lines[2:5] == [" ".join(repr(w[i]) for w in net.weights[0]) for i in range(3)]

    def test_roundtrip_preserves_behavior(self, tmp_path):
        net = init_weights([2, 2, 1], 42)
        net, _ = train(net, AND_DATA, epochs=200, learning_rate=0.5, seed=42)
        path = tmp_path / "model"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded == net
        for ex in AND_DATA:
            assert forward(net, ex.features) == forward(loaded, ex.features)

    def test_save_is_bit_stable(self, tmp_path):
        net = init_weights([3, 3, 2], 7)
        a, b = tmp_path / "a", tmp_path / "b"
        save_model(net, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model"
        path.write_text("NOT A MODEL\n1 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a"):
            load_model(path)

    def test_garbled_sizes(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\ntwo one\n", encoding="utf-8")
        with pytest.raises(DataError, match="^line 2: invalid layer sizes"):
            load_model(path)

    def test_single_size_rejected(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n3\n", encoding="utf-8")
        with pytest.raises(DataError, match="^line 2: invalid layer sizes"):
            load_model(path)

    @pytest.mark.parametrize("sizes", ["2 0 1", "2 x 1"])
    def test_bad_size_among_sizes_names_line_2(self, tmp_path, sizes):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n{sizes}\n" + "0.5 0.5\n" * 5, encoding="utf-8")
        with pytest.raises(DataError, match="^line 2: invalid layer sizes"):
            load_model(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n1 1\n0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="weight rows"):
            load_model(path)

    @pytest.mark.parametrize("row, match", [
        ("0.5 0.5", r"shape \(2,\), expected \(1,\)"),
        ("abc", "are not numbers"),
        ("inf", "non-finite"),
        ("nan", "non-finite"),
    ], ids=["wrong-width", "not-a-number", "inf", "nan"])
    def test_bad_weight_row_names_its_line(self, tmp_path, row, match):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n1 1\n0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^line 4: weights .*{match}"):
            load_model(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n", encoding="utf-8")
        with pytest.raises(DataError, match="truncated"):
            load_model(path)


class TestGradientCheck:
    def test_tiny_network(self):
        net = init_weights([1, 1], 5)
        assert gradient_check(net, [0.7], [0.2]) < 1e-7

    def test_does_not_disturb_weights(self):
        net = init_weights([2, 2, 1], 6)
        before = copy.deepcopy(net.weights)
        gradient_check(net, [0.1, -0.4], [0.8])
        assert net.weights == before

    def test_suite_under_tolerance(self):
        assert gradient_check_suite(seed=123) < GRADIENT_TOLERANCE

    def test_suite_deterministic(self):
        assert gradient_check_suite(seed=3) == gradient_check_suite(seed=3)
