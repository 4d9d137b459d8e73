"""Seeded bit-flip fuzz of the files the CLI reads: model binary, scene and config JSON.

Every flipped file must either load or fail as an input error, and a sample
of them must run through the CLI to exit 0, 1 or 2, with exit 1 printing
exactly one line.
"""

import json

import numpy as np
import pytest

from semiconv import synth
from semiconv.backbone import Backbone
from semiconv.cli import UsageError, _config_tokens, build_parser, main
from semiconv.tensor import Tensor

TRIES = 300
THROUGH_CLI = 30  # every (TRIES // THROUGH_CLI)-th flipped file also runs through main


def flipped(blob, rng):
    """``blob`` with 1 to 3 distinct random bits flipped."""
    arr = np.frombuffer(blob, dtype=np.uint8).copy()
    bits = rng.choice(arr.size * 8, size=int(rng.integers(1, 4)), replace=False)
    for bit in bits:
        arr[bit // 8] ^= np.uint8(1 << (bit % 8))
    return arr.tobytes()


@pytest.fixture()
def inputs(tmp_path):
    """A tiny scene, model and train config, small enough that flips hit headers and keys."""
    scene = synth.generate_scene(2, 2, dot_radius=2, spacing=6, img_noise_std=0.1, seed=0)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(synth.scene_to_json(scene)))
    rng = np.random.default_rng(0)
    model_path = tmp_path / "model.bin"
    Backbone([Tensor(rng.standard_normal((2, 1, 3, 3))), Tensor(rng.standard_normal((3, 2, 3, 3)))],
             [Tensor(rng.standard_normal(2)), Tensor(rng.standard_normal(3))]).save(model_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 2, "lr": 0.03, "dims": 4,
                                       "mode": "conv", "seed": 1}))
    return {"scene": scene_path, "model": model_path, "config": config_path}


def run_cli(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    return code


def load_config(argv):
    # what main does with --config: read it, then parse its entries as flags
    parser = build_parser()
    args = parser.parse_args(argv)
    return parser.parse_args(argv + _config_tokens(args))


@pytest.mark.parametrize("kind", ["model", "scene", "config"])
def test_bit_flipped_inputs_load_or_fail_as_input_errors(tmp_path, inputs, capsys, kind):
    rng = np.random.default_rng(["model", "scene", "config"].index(kind))
    clean = inputs[kind].read_bytes()
    bad = tmp_path / f"flipped-{kind}"
    if kind == "config":
        argv = ["train", "--scene", inputs["scene"], "--config", bad]
    else:
        paths = {"scene": inputs["scene"], "model": inputs["model"], kind: bad}
        argv = ["cluster", "--scene", paths["scene"], "--model", paths["model"]]
    argv = [str(a) for a in argv + ["--out", tmp_path / "out"]]
    codes = set()
    for i in range(TRIES):
        bad.write_bytes(flipped(clean, rng))
        try:
            if kind == "model":
                Backbone.load(bad)
            elif kind == "scene":
                synth.load_scene(bad)
            else:
                load_config(argv)
        except (UsageError, ValueError):
            pass
        if i % (TRIES // THROUGH_CLI) == 0:
            codes.add(run_cli(argv, capsys))
    assert 1 in codes  # the sample reaches the input checks, not only clean runs
