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

All arithmetic runs on plain Python floats in one kernel (`_forward`,
`_backward`, `_step`), which `train`, `forward`, `backprop` and `error`
share, and `gradient_check` through them; so each arithmetic step is
written once and training gives the same bits as the public functions
called in turn. The kernel holds a layer as one list per target unit of
its incoming weights, bias last (`_layers`). `train` checks its whole
example list once, converts ``net.weights`` once and writes the kernel's
weights back into those arrays after every epoch; the public functions
convert on every call. The code alone fixes the bits, not the BLAS or SIMD
routines a CPU selects at runtime:

  - Every sum runs left to right in an explicit loop from 0.0: a unit's
    total input adds its sources in order and its bias last, a source's
    error/activity adds the next layer's units in order, and the error
    adds the outputs in order. Not `sum()`: from Python 3.12 it
    compensates float sums, so the last bits would depend on the
    interpreter.
  - The exponential is the C library's ``exp``, through `math.exp`.
  - The sigmoid saturates explicitly, without a warning: where e^-x
    overflows (`math.exp` raises OverflowError) it is 0.0, and where e^-x
    underflows to 0.0 it is 1.0, the values numpy reaches through inf.
  - Training takes one example at a time: summing in another order
    (batching examples, say) would change the trained weights' last bits.

Model files are UTF-8 text. Line 1 is the magic ``PSWM-MODEL v1``, line 2
the space-separated layer sizes, then one line per weight-matrix row
(matrices in layer order, source rows ascending, bias row last). Floats are
written with ``repr`` so the file parses back to bit-identical doubles.
"""

from __future__ import annotations

import math
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


def _layers(weights) -> list[list[list[float]]]:
    """The kernel's copy of `weights`: per layer, each target unit's incoming weights, bias last."""
    return [w.T.tolist() for w in weights]


def _squash(x: float) -> float:
    """The sigmoid of one float: 0.0 where e^-x overflows, 1.0 where it underflows to 0.0."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _forward(layers, inputs: list[float]) -> list[list[float]]:
    """Forward pass; returns the activities of every layer, `inputs` first."""
    acts = [inputs]
    for units in layers:
        src = acts[-1]
        out = []
        for w in units:
            total = 0.0
            for a, wi in zip(src, w):  # stops at the bias, the last weight
                total += a * wi
            out.append(_squash(total + w[-1]))
        acts.append(out)
    return acts


def _half_square(diff: list[float]) -> float:
    """The error of an output whose difference from the desired vector is `diff`."""
    total = 0.0
    for d in diff:
        total += d * d
    return 0.5 * total


def _backward(layers, acts, ea: list[float]) -> list[list[float]]:
    """Backward pass over the forward pass `acts`, `ea` being output minus desired.

    Returns the ei values of every layer but the input layer: entry k
    belongs to the target units of weight layer k, so ``acts[k][i] *
    ei[k][j]`` is the ew of that layer's weight from source i to target j,
    and ``ei[k][j]`` itself the ew of target j's bias weight.
    """
    eis = [ea] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        ei = [e * y * (1.0 - y) for e, y in zip(ea, acts[k + 1])]
        eis[k] = ei
        if k:  # nothing reads the input layer's error/activity values
            ea = [0.0] * len(acts[k])
            for w, e in zip(layers[k], ei):  # adds each source's terms in target-unit order
                ea = [total + wi * e for total, wi in zip(ea, w)]
    return eis


def _step(layers, inputs: list[float], desired: list[float], learning_rate: float) -> float:
    """One unchecked online step; returns the example's pre-update error.

    Every derivative comes from the pre-update weights, as in `backprop`
    followed by one descent step.
    """
    acts = _forward(layers, inputs)
    ea = [y - d for y, d in zip(acts[-1], desired)]
    for units, src, ei in zip(layers, acts, _backward(layers, acts, ea)):
        for w, e in zip(units, ei):
            for i, a in enumerate(src):
                w[i] -= learning_rate * (a * e)
            w[-1] -= learning_rate * e
    return _half_square(ea)


def forward(net: Network, features) -> list[np.ndarray]:
    """Run the forward pass; returns the activity vector of every layer.

    Layer 0 is the raw feature vector. Each later unit's total weighted
    input is the dot product of the previous layer's activities (bias unit
    included at 1.0) with its incoming weights, squashed by the sigmoid.
    """
    y = np.asarray(features, dtype=float)
    if y.shape != (net.layer_sizes[0],):
        raise ValueError(f"input length {y.shape} does not match input layer size {net.layer_sizes[0]}")
    acts = _forward(_layers(net.weights), y.tolist())
    return [y] + [np.array(a) for a in acts[1:]]


def error(output, desired) -> float:
    """Half the summed squared difference between output and desired vectors."""
    y = np.asarray(output, dtype=float)
    d = np.asarray(desired, dtype=float)
    if y.shape != d.shape:
        raise ValueError(f"output shape {y.shape} does not match desired shape {d.shape}")
    return _half_square((y - d).ravel().tolist())


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
    srcs = [a.tolist() for a in acts]
    eis = _backward(_layers(net.weights), srcs, (acts[-1] - d).tolist())
    return [np.array([[a * e for a in src] + [e] for e in ei]).T for src, ei in zip(srcs, eis)]


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
    features, desired = (a.tolist() for a in _example_arrays(net, data))
    layers = _layers(net.weights)
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    for epoch in range(1, epochs + 1):
        total = 0.0
        for i in rng.permutation(len(data)).tolist():
            total += _step(layers, features[i], desired[i], learning_rate)
        for w, units in zip(net.weights, layers):
            w[...] = np.array(units).T
        if not all(np.all(np.isfinite(w)) for w in net.weights):
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
