"""Feed-forward sigmoid network trained by explicit error derivatives.

Everything here is written out by hand rather than delegated to an ML
framework: the forward pass computes each unit's total weighted input and
squashes it through the sigmoid, the loss is half the summed squared output
error, and the backward pass works through three derivative families per
layer:

  ea -- how fast the error changes with a unit's activity (output layer:
        activity minus desired value; earlier layers: the weight-weighted
        sum of the next layer's ei values)
  ei -- how fast the error changes with a unit's total input
        (ea scaled by the sigmoid slope, activity * (1 - activity))
  ew -- how fast the error changes with a weight (ei scaled by the source
        unit's activity)

`backprop` returns only the last family: one derivative matrix per weight
matrix, shaped like it.

Thresholds are realized as bias units: every non-output layer carries one
extra unit with constant activity 1.0, so each weight matrix has one more
source row (the bias row, stored last) than the layer has units.

Training checks its whole example list once, then runs an unchecked kernel
(`_step`) over preallocated buffers: one augmented buffer per non-output
layer, its last entry the bias unit fixed at 1.0. The public `forward`,
`error` and `backprop` validate their arguments and then call the same
private functions the kernel calls, so each arithmetic step is written
once and training gives the same bits either way. Each product
stays a vector times a matrix, one example at a time: summing in another
order (batching examples, say) would change the trained weights' last bits.

Model files are UTF-8 text. Line 1 is the magic ``PSWM-MODEL v1``, line 2
the space-separated layer sizes, then one line per weight-matrix row
(matrices in layer order, source rows ascending, bias row last). Floats are
written with ``repr`` so the file parses back to bit-identical doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import read_lines, write_text_atomic

MODEL_MAGIC = "PSWM-MODEL v1"

# Maximum relative mismatch tolerated between analytic and finite-difference
# weight derivatives before a gradient check counts as failed.
GRADIENT_TOLERANCE = 1e-5


def sigmoid(x):
    """Logistic squashing function 1 / (1 + e^-x)."""
    return 1.0 / (1.0 + np.exp(-x))


class Network:
    """Layered sigmoid network: layer sizes plus one weight matrix per layer pair.

    ``weights[k]`` has shape ``(layer_sizes[k] + 1, layer_sizes[k + 1])``;
    the extra source row is the bias unit.
    """

    def __init__(self, layer_sizes, weights):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least two layers of positive size, got {sizes}")
        mats = [np.asarray(w, dtype=float) for w in weights]
        if len(mats) != len(sizes) - 1:
            raise ValueError(f"expected {len(sizes) - 1} weight matrices, got {len(mats)}")
        for k, w in enumerate(mats):
            expected = (sizes[k] + 1, sizes[k + 1])
            if w.shape != expected:
                raise ValueError(f"weight matrix {k} has shape {w.shape}, expected {expected}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"weight matrix {k} contains non-finite entries")
        self.layer_sizes = sizes
        self.weights = mats

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return self.layer_sizes == other.layer_sizes and all(
            np.array_equal(a, b) for a, b in zip(self.weights, other.weights)
        )

    def __repr__(self):
        return f"Network(layer_sizes={self.layer_sizes})"


@dataclass
class TrainingExample:
    """Input features with the desired output vector (entries in [0, 1])."""

    features: list[float]
    desired: list[float]


def _augmented(layer_sizes) -> list[np.ndarray]:
    """One buffer per non-output layer: its activities, then the bias unit fixed at 1.0."""
    buffers = [np.empty(n + 1) for n in layer_sizes[:-1]]
    for buf in buffers:
        buf[-1] = 1.0
    return buffers


def _forward(weights, aug) -> np.ndarray:
    """Forward pass from the inputs in ``aug[0]``: fills every hidden buffer, returns the output activities."""
    for w, src, dst in zip(weights, aug, aug[1:]):
        dst[:-1] = sigmoid(src @ w)
    return sigmoid(aug[-1] @ weights[-1])


def _half_square(diff) -> float:
    """The error of an output whose difference from the desired vector is `diff`."""
    return 0.5 * float((diff ** 2).sum())


def _backward(weights, aug, output, ea) -> list[np.ndarray]:
    """Backward pass over a forward pass held in ``aug`` and ``output``, ``ea`` being output minus desired.

    Returns one derivative matrix per weight matrix.
    """
    ew = [ea] * len(weights)
    y = output
    for k in range(len(weights) - 1, -1, -1):
        ei = ea * y * (1.0 - y)
        ew[k] = aug[k][:, None] * ei
        if k:  # nothing reads the input layer's error/activity values
            ea = weights[k][:-1] @ ei
            y = aug[k][:-1]
    return ew


def _step(weights, aug, desired, learning_rate) -> float:
    """One unchecked online step on the inputs in ``aug[0]``; returns the example's pre-update error.

    Every derivative comes from the pre-update weights, as in `backprop`
    followed by one descent step.
    """
    output = _forward(weights, aug)
    ea_out = output - desired
    for w, g in zip(weights, _backward(weights, aug, output, ea_out)):
        w -= learning_rate * g
    return _half_square(ea_out)


def forward(net: Network, features) -> list[np.ndarray]:
    """Run the forward pass; returns the activity vector of every layer.

    Layer 0 is the raw feature vector. Each later unit's total weighted
    input is the dot product of the previous layer's activities (bias unit
    included at 1.0) with its incoming weights, squashed by the sigmoid.
    """
    y = np.asarray(features, dtype=float)
    if y.shape != (net.layer_sizes[0],):
        raise ValueError(f"input length {y.shape} does not match input layer size {net.layer_sizes[0]}")
    aug = _augmented(net.layer_sizes)
    aug[0][:-1] = y
    output = _forward(net.weights, aug)
    return [y] + [buf[:-1] for buf in aug[1:]] + [output]


def error(output, desired) -> float:
    """Half the summed squared difference between output and desired vectors."""
    y = np.asarray(output, dtype=float)
    d = np.asarray(desired, dtype=float)
    if y.shape != d.shape:
        raise ValueError(f"output shape {y.shape} does not match desired shape {d.shape}")
    return _half_square(y - d)


def backprop(net: Network, activations, desired) -> list[np.ndarray]:
    """Backward pass over activations produced by `forward`; returns one derivative matrix per weight matrix.

    Works output-to-input: error/activity at the output layer, then per
    layer the error/input values, the weight derivatives (bias row uses
    source activity 1.0), and the previous layer's error/activity values.
    Entry k of the result has the shape of ``net.weights[k]``.
    """
    n_layers = len(net.layer_sizes)
    if len(activations) != n_layers:
        raise ValueError(f"expected {n_layers} activation vectors, got {len(activations)}")
    acts = [np.asarray(a, dtype=float) for a in activations]
    for k, a in enumerate(acts):
        if a.shape != (net.layer_sizes[k],):
            raise ValueError(f"activation vector {k} has shape {a.shape}, expected ({net.layer_sizes[k]},)")
    d = np.asarray(desired, dtype=float)
    if d.shape != acts[-1].shape:
        raise ValueError(f"desired shape {d.shape} does not match output shape {acts[-1].shape}")
    aug = [np.append(a, 1.0) for a in acts[:-1]]
    return _backward(net.weights, aug, acts[-1], acts[-1] - d)


def _example_arrays(net: Network, data: list[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
    """Check every example against the network once; returns (n, inputs) features and (n, outputs) targets."""
    n_in, n_out = net.layer_sizes[0], net.layer_sizes[-1]
    features = np.empty((len(data), n_in))
    desired = np.empty((len(data), n_out))
    for i, example in enumerate(data):
        for name, values, out in (("features", example.features, features),
                                  ("desired", example.desired, desired)):
            try:
                v = np.asarray(values, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"example {i}: {name} are not numbers") from exc
            if v.shape != out.shape[1:]:
                raise ValueError(f"example {i}: {name} have shape {v.shape}, expected ({out.shape[1]},)")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"example {i}: {name} contain non-finite values")
            out[i] = v
    return features, desired


def train(net: Network, data: list[TrainingExample], epochs: int, learning_rate: float,
          seed: int) -> tuple[Network, list[float]]:
    """Online training: one descent step per example, reshuffled each epoch.

    The shuffle order is drawn from a generator seeded with `seed`, so the
    whole run is deterministic given (seed, data order, initial weights).
    The weights of `net` change in place, and `net` itself is returned
    with one mean-error entry per epoch, the error being measured on each
    example's pre-update forward pass.
    Every example is checked before any weight changes: ValueError names
    the first one whose lengths do not fit the network or whose values
    are not finite. Raises ValueError if a weight is not finite after an
    epoch. Sigmoid overflow is not reported: it saturates to the correct
    limit.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not data and epochs > 0:
        raise ValueError("cannot train on an empty example list")
    if learning_rate <= 0.0:
        raise ValueError(f"learning rate must be positive, got {learning_rate}")
    features, desired = _example_arrays(net, data)
    weights = net.weights
    aug = _augmented(net.layer_sizes)
    inputs = aug[0][:-1]
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    with np.errstate(over="ignore"):
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(data))
            total = 0.0
            for i in order:
                inputs[:] = features[i]
                total += _step(weights, aug, desired[i], learning_rate)
            if not all(np.all(np.isfinite(w)) for w in weights):
                raise ValueError(f"training diverged: non-finite weights after epoch {epoch}")
            trace.append(total / len(data))
    return net, trace


def init_weights(layer_sizes, seed: int) -> Network:
    """Fresh network with weights drawn uniformly from [-0.5, 0.5].

    Draws come from numpy's seeded default generator (PCG64), one matrix per
    layer pair in layer order, so equal seeds give identical networks.
    """
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(int(s) < 1 for s in sizes):
        raise ValueError(f"need at least two layers of positive size, got {sizes}")
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.5, size=(int(a) + 1, int(b))) for a, b in zip(sizes, sizes[1:])]
    return Network(sizes, weights)


def save_model(net: Network, path) -> None:
    """Write `net` to `path` in the versioned text format (see module doc), replacing the file atomically."""
    lines = [MODEL_MAGIC, " ".join(str(s) for s in net.layer_sizes)]
    for w in net.weights:
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_model(path) -> Network:
    """Read a model written by `save_model`.

    Raises DataError on a bad magic line, malformed sizes, a row count or
    row width that disagrees with the sizes, or unparseable weights.
    """
    lines = read_lines(path, "model")
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError(f"not a {MODEL_MAGIC} file: {path}")
    if len(lines) < 2:
        raise DataError("truncated model file: missing layer sizes")
    try:
        sizes = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise DataError(f"line 2: invalid layer sizes: {lines[1]!r}") from exc
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise DataError(f"line 2: invalid layer sizes: {sizes}")

    expected_rows = sum(s + 1 for s in sizes[:-1])
    body = lines[2:]
    if len(body) != expected_rows:
        raise DataError(f"model file has {len(body)} weight rows, expected {expected_rows}")

    weights: list[np.ndarray] = []
    pos = 0
    for src, tgt in zip(sizes, sizes[1:]):
        rows = []
        for _ in range(src + 1):
            parts = body[pos].split()
            line_no = pos + 3
            if len(parts) != tgt:
                raise DataError(f"line {line_no}: expected {tgt} weights, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise DataError(f"line {line_no}: invalid weight value") from exc
            if not all(np.isfinite(row)):
                raise DataError(f"line {line_no}: non-finite weight value")
            rows.append(row)
            pos += 1
        weights.append(np.array(rows, dtype=float))
    return Network(sizes, weights)


def gradient_check(net: Network, features, desired, h: float = 1e-4) -> float:
    """Worst relative mismatch between analytic and central-difference gradients.

    Every weight is nudged by +/- h; the numeric slope of the error is
    compared against the backward pass's ew entry, relative to
    max(|analytic|, |numeric|, 1e-8).
    """
    activations = forward(net, features)
    worst = 0.0
    for w, g in zip(net.weights, backprop(net, activations, desired)):
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                original = w[i, j]
                w[i, j] = original + h
                e_plus = error(forward(net, features)[-1], desired)
                w[i, j] = original - h
                e_minus = error(forward(net, features)[-1], desired)
                w[i, j] = original
                numeric = (e_plus - e_minus) / (2.0 * h)
                analytic = g[i, j]
                scale = max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def gradient_check_suite(seed: int) -> float:
    """Max gradient-check mismatch over 20 random small networks.

    Samples 2- or 3-layer shapes with sizes in 1..5, inputs in [-1, 1], and
    targets in [0, 1], all from one generator seeded with `seed`.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n_layers = int(rng.integers(2, 4))
        sizes = [int(s) for s in rng.integers(1, 6, size=n_layers)]
        net = init_weights(sizes, int(rng.integers(0, 2**32)))
        features = rng.uniform(-1.0, 1.0, size=sizes[0])
        desired = rng.uniform(0.0, 1.0, size=sizes[-1])
        worst = max(worst, gradient_check(net, features, desired))
    return worst
