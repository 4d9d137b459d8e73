import ctypes
import time
from types import SimpleNamespace

import pytest

from semiconv import synth


@pytest.fixture(scope="session")
def trained_pair():
    """Train the conv/semiconv contrast pair once and share it.

    Full-size setting: 4x4 dot grid at spacing 32 (128x128 image), radius-3
    dots, 400 epochs. Both runs use the same seed and config; the only
    difference is whether pixel coordinates are mixed into the head output.
    The wall-clock time is kept so the runtime budget can be asserted where
    the results are consumed.
    """
    scene = synth.generate_scene(4, 4, dot_radius=3, spacing=32, seed=0)
    cfg = synth.TrainConfig(epochs=400, seed=0)
    started = time.perf_counter()
    (conv_model, conv_losses), (semi_model, semi_losses) = \
        synth.controlled_pair(scene, cfg)
    elapsed = time.perf_counter() - started
    return {
        "scene": scene,
        "cfg": cfg,
        "conv_model": conv_model,
        "conv_losses": conv_losses,
        "semi_model": semi_model,
        "semi_losses": semi_losses,
        "elapsed": elapsed,
    }


@pytest.fixture()
def fake_mallopt(monkeypatch):
    """A C library whose mallopt records its (param, value) calls in the
    list this returns, in place of the one ctypes would load."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return calls
