"""A 1-d construction showing why convolutional features cannot color instances.

Take a triangular wave of period 2: every period is one "instance". Any
translation-equivariant operator (a conv stack) must produce identical values
at the peaks u = 2k, so it cannot assign the periods distinct colors. A
semi-convolutional readout that mixes in the sample position,
color(u) = u + (1 - x_u) * xdot_u, solves the task exactly: it is constant
with value 2k across the interior of period k. A propose-and-verify detector
(scan for x_u == 1) also solves it, by enumerating centers instead of
coloring pixels.

The domain is circular with a whole number of periods so there are no edge
effects; sample values are built from index arithmetic so periodicity holds
bit-exactly.
"""

import numpy as np

from .backbone import Backbone, Cone
from .tensor import Tensor


class PeriodicSignal1D:
    """Triangular wave samples on a uniform circular grid over [-L, L].

    Both endpoints are included (they are the same point of the circle), so
    there are n_cycle + 1 samples and index arithmetic wraps modulo n_cycle.
    """

    PERIOD = 2.0

    def __init__(self, half_extent, step, grid, samples, per_period):
        self.half_extent = half_extent
        self.step = step
        self.grid = grid            # sample positions u_i
        self.samples = samples      # x(u_i)
        self.per_period = per_period
        self.n_cycle = samples.size - 1

    @property
    def n_regions(self):
        # one region per peak position on [-L, L]; the two endpoints both count
        return int(round(self.half_extent)) + 1


def make_signal(half_extent, step):
    """Sample x(u) = min(1-u', 1+u') (u' = u wrapped into [-1,1]) over [-L, L].

    step must divide the period 2 evenly so peaks land on grid points, and
    half_extent must be a whole number of periods so the circular wrap is
    seamless.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    per = int(round(PeriodicSignal1D.PERIOD / step))
    if per < 2 or abs(per * step - PeriodicSignal1D.PERIOD) > 1e-12:
        raise ValueError("step must divide the period 2 evenly")
    half = float(half_extent)
    if half <= 0 or abs(half / 2.0 - round(half / 2.0)) > 1e-12:
        raise ValueError("half_extent must be a positive multiple of the period 2")
    n = int(round(2.0 * half / step))
    idx = np.arange(n + 1)
    grid = -half + idx * step
    # value from the position inside the period: exact, so x(u+2) == x(u) bitwise
    p = idx % per
    samples = 1.0 - step * np.minimum(p, per - p)
    return PeriodicSignal1D(half, step, grid, samples, per)


def _cyclic_derivative(samples, step, n_cycle):
    # central differences with wraparound on the n_cycle-point circle
    x = samples[:n_cycle]
    d = (np.roll(x, -1) - np.roll(x, 1)) / (2.0 * step)
    return np.concatenate([d, d[:1]])  # endpoint duplicates index 0


def semiconv_color(sig):
    """Position-mixed coloring: color(u) = u + (1 - x_u) * xdot_u.

    On the interior of period k the slope is exactly -+1 and the formula
    collapses to the constant 2k. At peaks the (1 - x_u) factor vanishes, so
    the value is 2k regardless of slope convention. Only the valleys
    u = 2k +- 1 are ambiguous between neighboring regions.
    """
    xdot = _cyclic_derivative(sig.samples, sig.step, sig.n_cycle)
    return sig.grid + (1.0 - sig.samples) * xdot


def interior_mask(sig):
    """Grid points strictly inside a region (excludes the valleys x == 0)."""
    return sig.samples > 0.0


def conv_collision_witness(sig, stack):
    """Max output spread across the peaks u = 2k under a conv stack.

    The stack runs on one circular cycle of samples as a [1,1,N] image. Its
    rows wrap onto the one row, so each KxK kernel acts as the 1xK kernel of
    its column sums: a 1-d circular conv stack. Peak neighborhoods are
    bit-identical by periodic construction, so any stack of circular
    convolutions and pointwise nonlinearities returns bit-identical values
    there; the spread quantifies the collision.
    """
    image = Tensor(sig.samples[:sig.n_cycle].reshape(1, 1, -1))
    y = stack.forward(Cone(stack, image, np.arange(sig.n_cycle))).data[0]
    peaks = y[::sig.per_period]
    return float(np.max(peaks) - np.min(peaks))


def pv_verify(sig):
    """Propose-and-verify readout: centers are the samples where x hits 1.

    The exact test x == 1.0 works because peaks are constructed on grid
    points.
    """
    return sig.grid[sig.samples == 1.0]


def report(half_extent=4.0, step=0.25, n_stacks=5, seed=0):
    """Run the full contrast and return a JSON-ready summary."""
    sig = make_signal(half_extent, step)
    colors = semiconv_color(sig)
    inside = interior_mask(sig)
    target = 2.0 * np.round(sig.grid / 2.0)
    max_err = float(np.max(np.abs(colors[inside] - target[inside])))
    spreads = [conv_collision_witness(sig, Backbone.glorot(1, 1, seed + i))
               for i in range(n_stacks)]
    centers = pv_verify(sig)
    return {
        "max_conv_spread": max(spreads),
        "max_semiconv_error": max_err,
        "centers": [float(c) for c in centers],
        "n_regions": sig.n_regions,
    }
