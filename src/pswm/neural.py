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

`backprop` returns only the last family, laid out like the weights.

Thresholds are realized as bias units: every non-output layer carries one
extra unit with constant activity 1.0, so each unit has one more incoming
weight (the bias weight, stored last) than the layer below has units.

Weights are plain Python floats in one layout: ``net.weights[k][j]`` is the
list of incoming weights of unit j in layer k + 1, bias last. The
arithmetic runs on them in one kernel (`_forward`, `_backward`, `_step`),
which `forward`, `backprop` and `error` share, and `gradient_check` through
them; training updates ``net.weights`` in place with no copy to convert or
write back, and it gives the same bits as the public functions called in
turn. `train` runs `_step` for every shape but one: a [2, H, 1] net, the
ranking network, runs its epochs through `_train_epoch_2h1`, which evaluates
`_step`'s expressions in `_step`'s order with no per-layer lists, zips or
comprehensions between them (2.5 against 8.5 µs per step on a 2-4-1 net,
on a 2-vCPU x86-64 host, Python 3.11). `_step` is the reference it is
tested against bit for bit.
`Network`, `train`, `backprop` and `load_model` check each vector through
`_floats`. `forward` and `error` check only lengths: search and eval call
them once per candidate and judgment, where `_floats` measurably slows them.
Random draws (initial weights, the training shuffle, the gradient-check
suite) come from one standard-library `random.Random(seed)` per call, and
only through its ``random()`` method, whose sequence for an int seed Python
keeps across releases and platforms: a float from [low, high) is ``low +
(high - low) * random()``, and an index below n is ``int(random() * n)``.
The code alone fixes the bits, whatever the CPU:

  - Every sum runs left to right in an explicit loop from 0.0: a unit's
    total input adds its sources in order and its bias last, a source's
    error/activity adds the next layer's units in order, and the error
    adds the outputs in order. Not `sum()`: from Python 3.12 it
    compensates float sums, so the last bits would depend on the
    interpreter.
  - The exponential is the C library's ``exp``, through `math.exp`.
  - The sigmoid saturates explicitly, without a warning: where e^-x
    overflows (`math.exp` raises OverflowError) it is 0.0, and where e^-x
    underflows to 0.0 it is 1.0.
  - Training takes one example at a time: summing in another order
    (batching examples, say) would change the trained weights' last bits.

Model files are UTF-8 text. Line 1 is the magic ``PSWM-MODEL v1``, line 2
the space-separated layer sizes, then one line per source row of each
weight layer (layers in order, source rows ascending, bias row last; a row
holds that source's weight into each target unit). `save_model` and
`load_model` transpose at this boundary. Floats are written with ``repr``
so the file parses back to bit-identical doubles.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from itertools import islice

from .errors import DataError
from .fileio import read_lines, write_lines_atomic

MODEL_MAGIC = "PSWM-MODEL v1"

# Maximum relative mismatch tolerated between analytic and finite-difference
# weight derivatives before a gradient check counts as failed.
GRADIENT_TOLERANCE = 1e-5


def sigmoid(x: float) -> float:
    """Logistic squashing function 1 / (1 + e^-x): 0.0 where e^-x overflows, 1.0 where it underflows to 0.0."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _floats(values, size: int, name: str) -> list[float]:
    """`values` as a new list of `size` finite floats; ValueError names them `name` otherwise."""
    try:
        v = [float(x) for x in values]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} are not numbers") from exc
    if len(v) != size:
        raise ValueError(f"{name} have shape ({len(v)},), expected ({size},)")
    if not all(math.isfinite(x) for x in v):
        raise ValueError(f"{name} contain non-finite values")
    return v


def _seeded(seed) -> random.Random:
    """A generator seeded with `seed`; ValueError unless `seed` is a non-negative integer.

    `random.Random` itself would seed with abs() of a negative int and hash a string.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def _uniform(draw, low: float, high: float, n: int) -> list[float]:
    """`n` floats ``low + (high - low) * draw()``.

    The list is allocated before the first draw, so a size too large to hold raises MemoryError at once.
    """
    out = [0.0] * n
    span = high - low
    for i in range(n):
        out[i] = low + span * draw()
    return out


def _check_sizes(layer_sizes) -> list[int]:
    """`layer_sizes` as ints; ValueError unless there are two or more, all positive."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least two layers of positive size, got {sizes}")
    return sizes


@dataclass
class Network:
    """Layered sigmoid network: layer sizes plus one weight layer per layer pair.

    ``weights[k][j]`` is the list of float incoming weights of unit j in
    layer k + 1: ``layer_sizes[k]`` source weights, then the bias weight.
    """

    layer_sizes: list[int]
    weights: list[list[list[float]]] = field(repr=False)

    def __post_init__(self):
        sizes = _check_sizes(self.layer_sizes)
        weights = list(self.weights)
        if len(weights) != len(sizes) - 1:
            raise ValueError(f"expected {len(sizes) - 1} weight matrices, got {len(weights)}")
        self.layer_sizes = sizes
        self.weights = []
        for k, units in enumerate(weights):
            units = list(units)
            if len(units) != sizes[k + 1]:
                raise ValueError(f"weight matrix {k} has {len(units)} units, expected {sizes[k + 1]}")
            self.weights.append([_floats(w, sizes[k] + 1, f"weight matrix {k} unit {j}: weights")
                                 for j, w in enumerate(units)])


@dataclass
class TrainingExample:
    """Input features with the desired output vector (entries in [0, 1])."""

    features: list[float]
    desired: list[float]


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
            out.append(sigmoid(total + w[-1]))
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
    """One unchecked online step on `layers` in place; returns the example's pre-update error.

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


def _train_epoch_2h1(hidden, output, order, features, desired, learning_rate: float) -> float:
    """`_step` on each example of `order` in turn for a [2, H, 1] net; returns the summed pre-update error.

    `hidden` is ``weights[0]`` and `output` is ``weights[1][0]``, both changed
    in place. Each expression is `_step`'s, in its order, so the bits are too:
    hidden unit j's ei is taken from output weight j before that weight changes.
    """
    lr = learning_rate
    total = 0.0
    for n in order:
        x0, x1 = features[n]
        hs = []
        s = 0.0
        for w, v in zip(hidden, output):
            h = sigmoid(0.0 + x0 * w[0] + x1 * w[1] + w[2])
            hs.append(h)
            s += h * v
        y = sigmoid(s + output[-1])
        e = y - desired[n][0]
        eo = e * y * (1.0 - y)
        for j, w in enumerate(hidden):
            h, v = hs[j], output[j]
            eh = (0.0 + v * eo) * h * (1.0 - h)
            w[0] -= lr * (x0 * eh)
            w[1] -= lr * (x1 * eh)
            w[2] -= lr * eh
            output[j] = v - lr * (h * eo)
        output[-1] -= lr * eo
        total += 0.5 * (0.0 + e * e)
    return total


def forward(net: Network, features) -> list[list[float]]:
    """Run the forward pass; returns the activity list of every layer.

    Layer 0 is the feature vector as floats. Each later unit's total
    weighted input is the dot product of the previous layer's activities
    (bias unit included at 1.0) with its incoming weights, squashed by the
    sigmoid.
    """
    x = [float(v) for v in features]  # not `_floats`: ranking calls this once per candidate
    if len(x) != net.layer_sizes[0]:
        raise ValueError(f"input length ({len(x)},) does not match input layer size {net.layer_sizes[0]}")
    return _forward(net.weights, x)


def error(output, desired) -> float:
    """Half the summed squared difference between output and desired vectors."""
    if len(output) != len(desired):  # not `_floats`: eval calls this once per judgment
        raise ValueError(f"output shape ({len(output)},) does not match desired shape ({len(desired)},)")
    return _half_square([float(y) - float(d) for y, d in zip(output, desired)])


def backprop(net: Network, activations, desired) -> list[list[list[float]]]:
    """Backward pass over activations produced by `forward`; returns the weight derivatives.

    Works output-to-input: error/activity at the output layer, then per
    layer the error/input values, the weight derivatives (the bias weight
    uses source activity 1.0), and the previous layer's error/activity
    values. The result is laid out like ``net.weights``: entry [k][j][i] is
    the derivative of ``net.weights[k][j][i]``.
    """
    if len(activations) != len(net.layer_sizes):
        raise ValueError(f"expected {len(net.layer_sizes)} activation vectors, got {len(activations)}")
    acts = [_floats(a, n, f"activation vector {k}: activities")
            for k, (a, n) in enumerate(zip(activations, net.layer_sizes))]
    d = _floats(desired, net.layer_sizes[-1], "desired values")
    eis = _backward(net.weights, acts, [y - t for y, t in zip(acts[-1], d)])
    return [[[a * e for a in src] + [e] for e in ei] for src, ei in zip(acts, eis)]


def train(net: Network, data: list[TrainingExample], epochs: int, learning_rate: float,
          seed: int) -> tuple[Network, list[float]]:
    """Online training: one descent step per example, reshuffled each epoch.

    Each epoch shuffles one visiting order in place, Fisher-Yates from the
    top with ``j = int(random() * (i + 1))``, drawn from a generator seeded
    with `seed`, so the whole run is deterministic given (seed, data order,
    initial weights). ValueError if `seed` is negative or not an integer.
    The weights of `net` change in place, and `net` itself is returned
    with one mean-error entry per epoch, the error being measured on each
    example's pre-update forward pass. A [2, H, 1] net trains through
    `_train_epoch_2h1`, about 3.4 times as fast per step as `_step`, which
    trains every other shape; both give the same bits.
    Every example is checked before any weight changes: ValueError names
    the first one whose lengths do not fit the network, whose values are
    not finite, or whose desired values lie outside [0, 1], the range of
    the sigmoid output. Raises ValueError if a weight is not finite after an
    epoch. Sigmoid overflow is not reported: it saturates to the correct
    limit.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not data and epochs > 0:
        raise ValueError("cannot train on an empty example list")
    if not 0.0 < learning_rate < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
    n_in, n_out = net.layer_sizes[0], net.layer_sizes[-1]
    features, desired = [], []
    for i, example in enumerate(data):
        features.append(_floats(example.features, n_in, f"example {i}: features"))
        desired.append(_floats(example.desired, n_out, f"example {i}: desired"))
        if not all(0.0 <= d <= 1.0 for d in desired[-1]):
            raise ValueError(f"example {i}: desired values must lie in [0, 1], got {desired[-1]}")
    draw = _seeded(seed).random
    order = list(range(len(data)))
    two_h_one = len(net.layer_sizes) == 3 and n_in == 2 and n_out == 1
    trace: list[float] = []
    for epoch in range(1, epochs + 1):
        for i in range(len(order) - 1, 0, -1):
            j = int(draw() * (i + 1))
            order[i], order[j] = order[j], order[i]
        if two_h_one:
            total = _train_epoch_2h1(net.weights[0], net.weights[1][0], order, features, desired, learning_rate)
        else:
            total = 0.0
            for i in order:
                total += _step(net.weights, features[i], desired[i], learning_rate)
        if not all(math.isfinite(x) for units in net.weights for w in units for x in w):
            raise ValueError(f"training diverged: non-finite weights after epoch {epoch}")
        trace.append(total / len(data))
    return net, trace


def init_weights(layer_sizes, seed: int) -> Network:
    """Fresh network with weights drawn uniformly from [-0.5, 0.5).

    Each weight is ``-0.5 + random()`` from one generator seeded with
    `seed`, drawn layer by layer in the model file's row order (source rows
    ascending, bias row last), so equal seeds give identical networks. Each
    layer's draws are allocated before any is drawn, so a layer too large
    to hold raises MemoryError at once. ValueError if `seed` is negative or
    not an integer.
    """
    sizes = _check_sizes(layer_sizes)
    draw = _seeded(seed).random
    layers = []
    for a, b in zip(sizes, sizes[1:]):
        rows = _uniform(draw, -0.5, 0.5, (a + 1) * b)
        layers.append([rows[j::b] for j in range(b)])
    return Network(sizes, layers)


def save_model(net: Network, path) -> None:
    """Write `net` to `path` in the versioned text format (see module doc), replacing the file atomically."""
    lines = [MODEL_MAGIC, " ".join(str(s) for s in net.layer_sizes)]
    for units in net.weights:
        for row in zip(*units):
            lines.append(" ".join(repr(v) for v in row))
    write_lines_atomic(path, lines)


def load_model(path) -> Network:
    """Read a model written by `save_model`.

    After its magic line the file holds a sizes line of at least two
    positive integers, then one row per source unit plus bias, each holding
    one finite number per target unit; any other file raises DataError
    naming its line (line 2 for the sizes).
    """
    lines = read_lines(path, "model")
    if not lines or lines[0] != MODEL_MAGIC:
        raise DataError(f"not a {MODEL_MAGIC} file: {path}")
    if len(lines) < 2:
        raise DataError("truncated model file: missing layer sizes")
    try:
        sizes = _check_sizes(lines[1].split())
    except ValueError as exc:
        raise DataError(f"line 2: invalid layer sizes: {lines[1]!r}") from exc
    expected_rows = sum(s + 1 for s in sizes[:-1])
    if len(lines) - 2 != expected_rows:
        raise DataError(f"model file has {len(lines) - 2} weight rows, expected {expected_rows}")
    rows = enumerate(lines[2:], start=3)
    weights = []
    try:
        for src, tgt in zip(sizes, sizes[1:]):
            layer = [_floats(line.split(), tgt, f"line {n}: weights") for n, line in islice(rows, src + 1)]
            weights.append(zip(*layer))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return Network(sizes, weights)


def gradient_check(net: Network, features, desired, h: float = 1e-4) -> float:
    """Worst relative mismatch between analytic and central-difference gradients.

    Every weight is nudged by +/- h; the numeric slope of the error is
    compared against the backward pass's ew entry, relative to
    max(|analytic|, |numeric|, 1e-8).
    """
    activations = forward(net, features)
    worst = 0.0
    for units, grads in zip(net.weights, backprop(net, activations, desired)):
        for w, g in zip(units, grads):
            for i, analytic in enumerate(g):
                original = w[i]
                w[i] = original + h
                e_plus = error(forward(net, features)[-1], desired)
                w[i] = original - h
                e_minus = error(forward(net, features)[-1], desired)
                w[i] = original
                numeric = (e_plus - e_minus) / (2.0 * h)
                scale = max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def gradient_check_suite(seed: int) -> float:
    """Max gradient-check mismatch over 20 random small networks.

    Each network draws, from one generator seeded with `seed`: its layer
    count (2 or 3), its layer sizes (1..5), its `init_weights` seed (below
    2**32), its inputs from [-1, 1) and its targets from [0, 1). ValueError
    if `seed` is negative or not an integer.
    """
    draw = _seeded(seed).random
    worst = 0.0
    for _ in range(20):
        sizes = [1 + int(draw() * 5) for _ in range(2 + int(draw() * 2))]
        net = init_weights(sizes, int(draw() * 2**32))
        features = _uniform(draw, -1.0, 1.0, sizes[0])
        desired = _uniform(draw, 0.0, 1.0, sizes[-1])
        worst = max(worst, gradient_check(net, features, desired))
    return worst
