import numpy as np
import pytest

from semiconv import dilemma
from semiconv.backbone import Backbone, Cone
from semiconv.dilemma import (conv_collision_witness, interior_mask, make_signal,
                              pv_verify, report, semiconv_color)
from semiconv.tensor import Tensor
from whole_image import image_forward


def sample_at(sig, u):
    i = int(round((u + sig.half_extent) / sig.step))
    assert abs(sig.grid[i] - u) < 1e-12
    return sig.samples[i]


def test_signal_values():
    sig = make_signal(4.0, 0.25)
    assert sample_at(sig, 0.0) == 1.0
    assert sample_at(sig, 0.5) == 0.5
    assert sample_at(sig, 2.25) == 0.75  # one period over from u=0.25


def test_signal_periodic_bitwise():
    sig = make_signal(8.0, 0.25)
    n = sig.per_period
    for i in range(sig.n_cycle - n):
        assert sig.samples[i] == sig.samples[i + n]


def test_signal_matches_closed_form_in_central_period():
    sig = make_signal(4.0, 0.25)
    inside = np.abs(sig.grid) <= 1.0
    expect = np.minimum(1.0 - sig.grid[inside], 1.0 + sig.grid[inside])
    assert np.array_equal(sig.samples[inside], expect)


def test_signal_validation():
    with pytest.raises(ValueError):
        make_signal(4.0, 0.3)       # 2/0.3 is not an integer
    with pytest.raises(ValueError):
        make_signal(3.0, 0.25)      # not a whole number of periods
    with pytest.raises(ValueError):
        make_signal(4.0, 2.0)       # degenerate two-point period


def test_color_hand_values():
    sig = make_signal(4.0, 0.25)
    colors = semiconv_color(sig)
    i_half = int(round((0.5 + 4.0) / 0.25))
    assert colors[i_half] == 0.0         # 0.5 + (1-0.5)*(-1)
    i_225 = int(round((2.25 + 4.0) / 0.25))
    assert colors[i_225] == 2.0          # 2.25 + 0.25*(-1)
    for k in (-2, -1, 0, 1, 2):
        i_peak = int(round((2 * k + 4.0) / 0.25))
        assert colors[i_peak] == 2.0 * k


def test_color_constant_on_region_interiors():
    sig = make_signal(8.0, 0.125)
    colors = semiconv_color(sig)
    inside = interior_mask(sig)
    target = 2.0 * np.round(sig.grid / 2.0)
    assert np.max(np.abs(colors[inside] - target[inside])) < 1e-9


def test_colors_differ_across_regions_by_twice_the_offset():
    sig = make_signal(4.0, 0.25)
    colors = semiconv_color(sig)
    peaks = colors[::sig.per_period]
    for i, ki in enumerate(range(-2, 3)):
        for j, kj in enumerate(range(-2, 3)):
            assert peaks[i] - peaks[j] == 2.0 * (ki - kj)


def test_identity_op_has_zero_spread():
    sig = make_signal(4.0, 0.25)
    identity = Backbone([Tensor(np.ones((1, 1, 1, 1)))], [Tensor(np.zeros(1))])
    assert conv_collision_witness(sig, identity) == 0.0


def test_conv_stacks_collide():
    # the package's own backbone: its 3x3 kernels act on the one row as 1x3 ones
    sig = make_signal(4.0, 0.25)
    x = Tensor(sig.samples[:sig.n_cycle].reshape(1, 1, -1))
    for seed in range(5):
        stack = Backbone.glorot(1, 1, seed)
        assert conv_collision_witness(sig, stack) == 0.0
        # a constant output would collide trivially
        assert np.ptp(image_forward(stack, x).data) > 0


def test_the_report_records_no_tape(monkeypatch):
    # its stacks are inference-only models, as every model the package
    # makes: their forwards record no tape
    cones, outputs, forward = [], [], Backbone.forward
    monkeypatch.setattr(dilemma, "Cone", lambda *args: cones.append(Cone(*args)) or cones[-1])
    monkeypatch.setattr(Backbone, "forward",
                        lambda model, cone: outputs.append(forward(model, cone)) or outputs[-1])
    report(n_stacks=2)
    assert len(cones) == len(outputs) == 2
    assert not any(y.requires_grad or y._parents for y in outputs)


def test_semiconv_color_escapes_the_collision():
    sig = make_signal(4.0, 0.25)
    colors = semiconv_color(sig)
    peaks = colors[::sig.per_period]
    assert np.max(peaks) - np.min(peaks) == 8.0  # 2k spans -4..4


def test_pv_verify_centers():
    sig = make_signal(4.0, 0.25)
    centers = pv_verify(sig)
    assert np.array_equal(centers, [-4.0, -2.0, 0.0, 2.0, 4.0])
    assert len(centers) == sig.n_regions


def test_report_shape():
    out = report(half_extent=4.0, step=0.25, n_stacks=3, seed=1)
    assert out["max_conv_spread"] < 1e-9
    assert out["max_semiconv_error"] < 1e-9
    assert out["n_regions"] == 5
    assert out["centers"] == [-4.0, -2.0, 0.0, 2.0, 4.0]
