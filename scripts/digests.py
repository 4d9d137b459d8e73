"""SHA-1 digests of the package's answers, kept in tests/digests.json.

    python3 scripts/digests.py

computes every digest under one pinned OpenBLAS thread, prints each one that
moved against tests/digests.json (and each one added or gone), then writes
the file anew with the environment it was computed in. It exits 1 when no
OpenBLAS is loaded, since the bits belong to one BLAS kernel.
``tests/test_digests.py`` computes the same digests and compares them with
the file, so a change that moves any bit of these answers fails Tier-1 until
the file is regenerated, and a change that moves bits on purpose names each
moved digest.

The digests cover short training on the 4x4 grid at spacing 32 (both modes)
and the 8x8 grid at spacing 10 (weights and losses); each model's
whole-image field (``build_field``) and foreground field (``cone_field``)
and the k-means labels of each; ``train_seedcut`` and ``cut_all_boxes`` on
the 4x4 grid (masks and IoUs); the dilemma and gradcheck reports; and a CLI
chain on a 2x2 grid (``synth-gen``, ``train`` in both modes, ``cluster``,
``seedcut``), every artifact's bytes, each manifest without its wall-clock
``duration_s``.
"""

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semiconv import cli, dilemma, seedcut, synth  # noqa: E402
from semiconv.kernels import KernelParams  # noqa: E402

FILE = ROOT / "tests" / "digests.json"
EPOCHS = 8
CLI_EPOCHS = "6"


def environment():
    """The numpy version and the loaded OpenBLAS's config string and core
    name (synth._openblas; None where there is no OpenBLAS)."""
    calls = synth._openblas(get_config=((), ctypes.c_char_p),
                            get_corename=((), ctypes.c_char_p))
    config, core = (None, None) if calls is None else (fn().decode() for fn in calls)
    return {"numpy": np.__version__, "openblas_config": config, "openblas_core": core}


def sha1(*parts):
    """SHA-1 of arrays (their dtype, shape and bytes) and JSON-ready values."""
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def fields(out, name, model, scene, mode):
    """Digests of a model's whole-image and foreground fields and of the
    k-means labels decoded from each."""
    fg = scene.gt.foreground_mask()
    for kind, field in (
            ("build_field", synth.build_field(model, scene.image, mode)),
            ("cone_field", synth.cone_field(model, scene.image, np.flatnonzero(fg), mode))):
        # the values flattened: D channels, each over the map's listed pixels in list order
        out[f"{name}.{kind}"] = sha1(field.values.data.reshape(-1), field.at)
        out[f"{name}.{kind}.kmeans"] = sha1(synth.decode_kmeans(field, fg, scene.gt.K, 0).labels)


def cli_chain(out, workdir):
    """Run the 2x2 CLI chain in ``workdir`` and digest what it writes."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        epochs = ["--epochs", CLI_EPOCHS]
        runs = [["synth-gen", "--rows", "2", "--cols", "2", "--out", "scene.json"]]
        for mode in ("semiconv", "conv"):
            runs += [["train", "--scene", "scene.json", "--mode", mode, *epochs,
                      "--out", f"{mode}.bin", "--losses", f"{mode}-losses.json"],
                     ["cluster", "--scene", "scene.json", "--model", f"{mode}.bin",
                      "--mode", mode, "--out", f"{mode}-metrics.json",
                      "--render", f"{mode}.ppm"]]
        runs.append(["seedcut", "--scene", "scene.json", *epochs, "--out", "cuts.json",
                     "--render", "cuts.ppm"])
        for argv in runs:
            if cli.main(argv) != 0:
                raise RuntimeError(f"semiconv {' '.join(argv)} failed")
        for path in sorted(os.listdir(".")):
            data = Path(path).read_bytes()
            if path.endswith(".manifest.json"):
                doc = json.loads(data)
                del doc["duration_s"]
                out[f"cli.{path}"] = sha1(doc)
            else:
                out[f"cli.{path}"] = hashlib.sha1(data).hexdigest()
    finally:
        os.chdir(here)


def compute(workdir):
    """Every digest, by name, the CLI chain writing into ``workdir``. Run
    it under synth._one_blas_thread() for the recorded bits."""
    out = {}
    grid16 = synth.generate_scene(4, 4, dot_radius=3, spacing=32)
    grid64 = synth.generate_scene(8, 8, dot_radius=3, spacing=10)
    cfg = synth.TrainConfig(epochs=EPOCHS, seed=0)
    for name, scene, mode in (("grid16.conv", grid16, "conv"),
                              ("grid16.semiconv", grid16, "semiconv"),
                              ("grid64.semiconv", grid64, "semiconv")):
        model, losses = synth.train(scene, replace(cfg, mode=mode))
        out[f"train.{name}.weights"] = sha1(*(p.data for p in model.params()))
        out[f"train.{name}.losses"] = sha1(np.array(losses))
        fields(out, f"train.{name}", model, scene, mode)
    boxes = seedcut.gt_boxes_from_labels(grid16.gt)
    model, params, losses = seedcut.train_seedcut(
        grid16, boxes, cfg, KernelParams("steered_laplacian", sigma=1.0))
    out["seedcut.grid16.train"] = sha1(*(p.data for p in model.params()),
                                       params.log_sigma.data, np.array(losses))
    masks, _, ious = seedcut.cut_all_boxes(grid16, model, params)
    out["seedcut.grid16.masks"] = sha1(*masks)
    out["seedcut.grid16.ious"] = sha1(np.array(ious))
    out["dilemma.report"] = sha1(dilemma.report())
    out["gradcheck.report"] = sha1(cli.gradcheck_report(instances=2, seed=0))
    cli_chain(out, workdir)
    return out


def moved(old, new):
    """The names whose digest differs between two digest maps, added and
    gone ones included, sorted."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def main():
    env = environment()
    if env["openblas_core"] is None:
        print("error: no loaded OpenBLAS to pin; the digests belong to one BLAS kernel",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as workdir, synth._one_blas_thread():
        new = compute(workdir)
    old = json.loads(FILE.read_text()) if FILE.exists() else {"environment": {}, "digests": {}}
    for key in sorted(env):
        if old["environment"].get(key) != env[key]:
            print(f"environment {key}: {old['environment'].get(key)!r} -> {env[key]!r}")
    for name in moved(old["digests"], new):
        print(f"moved {name}: {old['digests'].get(name)} -> {new.get(name)}")
    FILE.write_text(json.dumps({"environment": env, "digests": new}, indent=2,
                               sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
