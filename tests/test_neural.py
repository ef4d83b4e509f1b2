"""Network mechanics: forward pass, derivatives, training, persistence."""

import math
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

    def test_vectorized(self):
        out = sigmoid(np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 1.0 / (1.0 + math.exp(-1.0))])

    def test_monotone(self):
        xs = np.linspace(-6, 6, 200)
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) > 0)


class TestNetwork:
    def test_shapes_accepted(self):
        net = Network([2, 3, 1], [np.zeros((3, 3)), np.zeros((4, 1))])
        assert net.layer_sizes == [2, 3, 1]

    def test_wrong_matrix_count(self):
        with pytest.raises(ValueError, match="weight matrices"):
            Network([2, 3, 1], [np.zeros((3, 3))])

    def test_wrong_shape(self):
        # missing the bias row
        with pytest.raises(ValueError, match="shape"):
            Network([2, 1], [np.zeros((2, 1))])

    def test_single_layer_rejected(self):
        with pytest.raises(ValueError, match="at least two layers"):
            Network([3], [])

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValueError):
            Network([2, 0], [np.zeros((3, 0))])

    def test_non_finite_weights_rejected(self):
        w = np.zeros((3, 1))
        w[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Network([2, 1], [w])

    def test_equality(self):
        a = init_weights([2, 2, 1], 5)
        b = init_weights([2, 2, 1], 5)
        c = init_weights([2, 2, 1], 6)
        assert a == b
        assert a != c


class TestForward:
    def test_single_connection_oracle(self):
        # one input, one output: x = 0.5 * 0.5 + 1.0 * 0.0 = 0.25
        net = Network([1, 1], [np.array([[0.5], [0.0]])])
        acts = forward(net, [0.5])
        assert len(acts) == 2
        np.testing.assert_allclose(acts[0], [0.5])
        assert acts[1][0] == pytest.approx(1.0 / (1.0 + math.exp(-0.25)), rel=1e-15)

    def test_bias_alone(self):
        # zero input weight: output is sigmoid of the bias weight
        net = Network([1, 1], [np.array([[0.0], [-1.5]])])
        acts = forward(net, [0.9])
        assert acts[1][0] == pytest.approx(1.0 / (1.0 + math.exp(1.5)), rel=1e-15)

    def test_all_zero_weights_give_half_everywhere(self):
        net = Network([3, 2, 2], [np.zeros((4, 2)), np.zeros((3, 2))])
        acts = forward(net, [0.9, -4.0, 17.0])
        np.testing.assert_array_equal(acts[1], [0.5, 0.5])
        np.testing.assert_array_equal(acts[2], [0.5, 0.5])

    def test_two_layer_hand_computation(self):
        w0 = np.array([[0.1, -0.2], [0.3, 0.4], [0.05, -0.05]])
        w1 = np.array([[0.7], [-0.6], [0.2]])
        net = Network([2, 2, 1], [w0, w1])
        x = [0.5, -1.0]
        h0 = sigmoid(0.5 * 0.1 + -1.0 * 0.3 + 0.05)
        h1 = sigmoid(0.5 * -0.2 + -1.0 * 0.4 + -0.05)
        out = sigmoid(h0 * 0.7 + h1 * -0.6 + 0.2)
        acts = forward(net, x)
        np.testing.assert_allclose(acts[1], [h0, h1], rtol=1e-15)
        np.testing.assert_allclose(acts[2], [out], rtol=1e-15)

    def test_activities_in_unit_interval(self):
        net = init_weights([3, 4, 2], 9)
        acts = forward(net, [10.0, -10.0, 0.1])
        for layer in acts[1:]:
            assert np.all(layer > 0.0) and np.all(layer < 1.0)

    @pytest.mark.parametrize("big, expected", [(1e300, 1.0), (-1e300, 0.0)])
    def test_huge_weights_saturate_exactly_without_warnings(self, big, expected):
        # Every total input is about +-1e300: e^-x underflows to 0.0 or overflows.
        net = Network([2, 3, 1], [np.full((3, 3), big), np.full((4, 1), big)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acts = forward(net, [0.5, 0.25])
        assert [list(a) for a in acts[1:]] == [[expected] * 3, [expected]]

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
            y = rng.uniform(0, 1, size=3)
            d = y.copy()
            if rng.uniform() < 0.5:
                d[int(rng.integers(0, 3))] += 1e-6
            e = error(y, d)
            assert e >= 0.0
            assert (e == 0.0) == bool(np.array_equal(y, d))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            error([1.0, 2.0], [1.0])


class TestBackprop:
    def test_single_connection_hand_oracle(self):
        # activity 0.8 vs desired 0.3 through one weight:
        #   ea_out = 0.8 - 0.3
        #   ei = ea * 0.8 * 0.2
        #   ew = ei * source activity (1.0 for both the unit and the bias)
        net = Network([1, 1], [np.array([[0.7], [0.1]])])
        acts = [np.array([1.0]), np.array([0.8])]
        grads = backprop(net, acts, [0.3])
        ea_out = 0.8 - 0.3
        ei = ea_out * 0.8 * (1.0 - 0.8)
        np.testing.assert_allclose(grads[0], [[ei], [ei]], rtol=1e-15)

    def test_bias_row_uses_unit_activity(self):
        net = Network([2, 1], [np.array([[0.5], [-0.5], [0.25]])])
        acts = forward(net, [0.4, 0.6])
        grads = backprop(net, acts, [1.0])
        out = acts[-1][0]
        ei = (out - 1.0) * out * (1.0 - out)
        # source rows scale ei by their activities; the bias row is ei itself
        np.testing.assert_allclose(grads[0][:, 0], [0.4 * ei, 0.6 * ei, ei], rtol=1e-12)

    def test_gradient_shapes_mirror_weights(self):
        net = init_weights([3, 5, 2], 3)
        acts = forward(net, [0.1, 0.2, 0.3])
        grads = backprop(net, acts, [0.0, 1.0])
        assert len(grads) == 2
        for w, g in zip(net.weights, grads):
            assert g.shape == w.shape

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
        for g in grads:
            np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-15)

    def test_saturated_units_have_zero_input_derivative(self):
        # the sigmoid slope factor y(1-y) kills ei at activities of exactly 0 or 1
        net = Network([1, 2, 1], [np.full((2, 2), 0.3), np.full((3, 1), 0.3)])
        acts = [np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0])]
        grads = backprop(net, acts, [0.0])
        # ei of each layer is its weight matrix's bias row
        np.testing.assert_array_equal(grads[0][-1], [0.0, 0.0])
        np.testing.assert_array_equal(grads[1][-1], [0.0])
        np.testing.assert_array_equal(grads[1], np.zeros((3, 1)))

    def test_chain_consistency_on_1_1_1(self):
        w0 = np.array([[0.4], [-0.1]])
        w1 = np.array([[-0.9], [0.3]])
        net = Network([1, 1, 1], [w0, w1])
        acts = forward(net, [0.6])
        h, out = acts[1][0], acts[2][0]
        desired = 0.2
        grads = backprop(net, acts, [desired])
        # hand-composed chain: ea_out -> ei_out -> ea_hidden -> ei_hidden -> ew
        ea_out = out - desired
        ei_out = ea_out * out * (1.0 - out)
        ea_hidden = w1[0, 0] * ei_out
        ei_hidden = ea_hidden * h * (1.0 - h)
        assert grads[1][0, 0] == pytest.approx(h * ei_out, rel=1e-14)
        assert grads[1][1, 0] == pytest.approx(ei_out, rel=1e-14)
        assert grads[0][0, 0] == pytest.approx(0.6 * ei_hidden, rel=1e-14)
        assert grads[0][1, 0] == pytest.approx(ei_hidden, rel=1e-14)

    def test_wrong_activation_count(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match="activation vectors"):
            backprop(net, [np.array([1.0, 2.0])], [0.5])

    def test_wrong_activation_shape(self):
        net = init_weights([2, 1], 0)
        with pytest.raises(ValueError, match=r"activation vector 0 has shape \(3,\), expected \(2,\)"):
            backprop(net, [np.array([1.0, 2.0, 3.0]), np.array([0.5])], [0.5])

    def test_wrong_desired_shape(self):
        net = init_weights([2, 1], 0)
        acts = forward(net, [0.1, 0.2])
        with pytest.raises(ValueError, match="desired"):
            backprop(net, acts, [0.5, 0.5])


class TestApplyGradients:
    """One descent step, written out as `train` takes it: every weight moves against its derivative."""

    def test_step_lowers_error(self):
        net = init_weights([2, 3, 1], 12)
        features, desired = [0.2, 0.8], [1.0]
        acts = forward(net, features)
        before = error(acts[-1], desired)
        for w, g in zip(net.weights, backprop(net, acts, desired)):
            w -= 0.5 * g
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
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shuffle_seed_matters(self):
        a = init_weights([2, 3, 1], 8)
        b = init_weights([2, 3, 1], 8)
        a, _ = train(a, AND_DATA, epochs=10, learning_rate=0.5, seed=1)
        b, _ = train(b, AND_DATA, epochs=10, learning_rate=0.5, seed=2)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_zero_epochs_is_identity(self):
        net = init_weights([2, 2, 1], 3)
        snapshot = [w.copy() for w in net.weights]
        out, trace = train(net, AND_DATA, epochs=0, learning_rate=0.5, seed=0)
        assert trace == []
        for w, s in zip(out.weights, snapshot):
            assert np.array_equal(w, s)

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
        for lr in (math.inf, math.nan):
            net = init_weights([2, 4, 1], 0)
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite weights after epoch 1"):
                train(net, AND_DATA, epochs=5, learning_rate=lr, seed=0)

    def test_sigmoid_overflow_saturates_without_warnings(self):
        net = init_weights([2, 4, 1], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            net, trace = train(net, AND_DATA, epochs=5, learning_rate=1e300, seed=0)
        assert all(np.all(np.isfinite(w)) for w in net.weights)
        assert len(trace) == 5


def _reference_train(net, data, epochs, learning_rate, seed):
    """`train` written with the public, validated functions, then the descent step inline."""
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(epochs):
        total = 0.0
        for i in rng.permutation(len(data)):
            activations = forward(net, data[i].features)
            total += error(activations[-1], data[i].desired)
            for w, g in zip(net.weights, backprop(net, activations, data[i].desired)):
                w -= learning_rate * g
        trace.append(total / len(data))
    return net, trace


class TestTrainKernel:
    @pytest.mark.parametrize("sizes", [[1, 1], [2, 1, 1], [2, 4, 1], [2, 9, 1], [3, 5, 2], [2, 3, 2, 1]])
    def test_matches_public_functions_bitwise(self, sizes):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            data = [
                TrainingExample(list(rng.uniform(-1.0, 1.0, sizes[0])), list(rng.uniform(0.0, 1.0, sizes[-1])))
                for _ in range(int(rng.integers(1, 8)))
            ]
            for epochs in (1, 4, 20):
                expected, expected_trace = _reference_train(init_weights(sizes, seed), data, epochs, 0.7, seed)
                got, trace = train(init_weights(sizes, seed), data, epochs, 0.7, seed)
                assert trace == expected_trace
                for w, e in zip(got.weights, expected.weights):
                    assert np.array_equal(w, e)

    @pytest.mark.parametrize("bad, match", [
        (TrainingExample([0.5], [1.0]), r"example 5: features have shape \(1,\), expected \(2,\)"),
        (TrainingExample([0.5, 0.5, 0.5], [1.0]), "example 5: features"),
        (TrainingExample([0.5, 0.5], [1.0, 0.0]), r"example 5: desired have shape \(2,\), expected \(1,\)"),
        (TrainingExample([0.5, 0.5], []), "example 5: desired"),
        (TrainingExample([0.5, math.nan], [1.0]), "example 5: features contain non-finite"),
        (TrainingExample([math.inf, 0.5], [1.0]), "example 5: features contain non-finite"),
        (TrainingExample([0.5, 0.5], [-math.inf]), "example 5: desired contain non-finite"),
        (TrainingExample([0.5, "x"], [1.0]), "example 5: features are not numbers"),
    ])
    def test_bad_late_example_raises_before_any_weight_changes(self, bad, match):
        net = init_weights([2, 4, 1], 0)
        before = [w.copy() for w in net.weights]
        data = AND_DATA + [TrainingExample([0.5, 0.5], [1.0]), bad]
        with pytest.raises(ValueError, match=match):
            train(net, data, epochs=3, learning_rate=0.5, seed=0)
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_non_positive_learning_rate_raises_before_any_weight_changes(self):
        for lr in (0.0, -0.5):
            net = init_weights([2, 4, 1], 0)
            before = [w.copy() for w in net.weights]
            with pytest.raises(ValueError, match="learning rate must be positive"):
                train(net, AND_DATA, epochs=3, learning_rate=lr, seed=0)
            for w, b in zip(net.weights, before):
                assert np.array_equal(w, b)


class TestInitWeights:
    def test_deterministic(self):
        assert init_weights([3, 4, 2], 21) == init_weights([3, 4, 2], 21)

    def test_range(self):
        net = init_weights([6, 8, 4], 2)
        for w in net.weights:
            assert np.all(w >= -0.5) and np.all(w <= 0.5)

    def test_shapes_include_bias_row(self):
        net = init_weights([2, 5, 1], 0)
        assert [w.shape for w in net.weights] == [(3, 5), (6, 1)]

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            init_weights([3], 0)
        with pytest.raises(ValueError):
            init_weights([2, 0, 1], 0)


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

    def test_roundtrip_preserves_behavior(self, tmp_path):
        net = init_weights([2, 2, 1], 42)
        net, _ = train(net, AND_DATA, epochs=200, learning_rate=0.5, seed=42)
        path = tmp_path / "model"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded == net
        for ex in AND_DATA:
            a = forward(net, ex.features)[-1]
            b = forward(loaded, ex.features)[-1]
            assert np.array_equal(a, b)

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
        with pytest.raises(DataError, match="layer sizes"):
            load_model(path)

    def test_single_size_rejected(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n3\n", encoding="utf-8")
        with pytest.raises(DataError, match="layer sizes"):
            load_model(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n1 1\n0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="weight rows"):
            load_model(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n1 1\n0.5 0.5\n0.1\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected 1 weights"):
            load_model(path)

    def test_unparseable_weight(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n1 1\n0.5\nabc\n", encoding="utf-8")
        with pytest.raises(DataError, match="invalid weight"):
            load_model(path)

    def test_non_finite_weight(self, tmp_path):
        path = tmp_path / "model"
        path.write_text(f"{MODEL_MAGIC}\n1 1\n0.5\ninf\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_model(tmp_path / "nope")

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
        before = [w.copy() for w in net.weights]
        gradient_check(net, [0.1, -0.4], [0.8])
        for w, b in zip(net.weights, before):
            assert np.array_equal(w, b)

    def test_suite_under_tolerance(self):
        assert gradient_check_suite(seed=123) < GRADIENT_TOLERANCE

    def test_suite_deterministic(self):
        assert gradient_check_suite(seed=3) == gradient_check_suite(seed=3)
