import base64
import dataclasses
import json
import struct

import numpy as np
import pytest

from semiconv import dilemma as dilemma_mod, render, seedcut as seedcut_mod, synth
from semiconv.backbone import Backbone
from semiconv import cli
from semiconv.cli import build_parser, main, write_json
from semiconv.embedding import (EmbeddingField, attach_coords, coord_grid, displacement_field,
                                field_rows)
from semiconv.kernels import KernelParams
from semiconv.losses import SegmentSet, pull_to_mean_loss
from semiconv.tensor import NumericError, Tensor
from whole_image import image_forward


def run(*argv):
    return main([str(a) for a in argv])


def read(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    assert run("synth-gen", "--rows", 2, "--cols", 2, "--spacing", 14,
               "--radius", 3, "--out", path) == 0
    return path


def test_json_is_sorted_and_round_trips(tmp_path):
    path = tmp_path / "x.json"
    doc = {"b": 1, "a": 0.1, "d": 1.0, "c": [True, None]}
    write_json(path, doc)
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"') < text.index('"d"')
    assert '\n  "a": 0.1,\n' in text and text.endswith("}\n")
    assert "true" in text and "null" in text
    back = json.loads(text)
    assert back == doc
    assert type(back["d"]) is float  # a whole float stays a float
    assert back["a"] == 0.1  # the shortest form reads back bit for bit


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == build_parser().format_usage()


def test_unknown_subcommand_and_flag_exit_1(tmp_path, capsys):
    assert run("frobnicate", "--out", tmp_path / "x") == 1
    assert run("dilemma", "--out", tmp_path / "d.json", "--bogus") == 1


def test_missing_input_file_exit_1(tmp_path, capsys):
    assert run("train", "--scene", tmp_path / "absent.json",
               "--out", tmp_path / "m.bin") == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--scene", "--config", "--out"])
def test_directory_as_file_exit_1(tmp_path, scene_path, capsys, flag):
    # a directory where a file belongs is an input problem, not a traceback
    argv = {"--scene": scene_path, "--out": tmp_path / "m.bin"}
    argv[flag] = tmp_path
    assert run("train", "--epochs", 1, "--dims", 2,
               *[v for pair in argv.items() for v in pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("subcommand,flag", [("train", "--out"), ("train", "--losses"),
                                              ("seedcut", "--out"), ("seedcut", "--render"),
                                              ("cluster", "--render")])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_bad_output_path_exit_1_before_training(tmp_path, scene_path, capsys, monkeypatch,
                                                subcommand, flag, where):
    def no_training(*args, **kwargs):
        pytest.fail("training started before the output path was checked")

    monkeypatch.setattr(synth, "train", no_training)
    monkeypatch.setattr(Backbone, "load", no_training)
    argv = {"--scene": scene_path, "--out": tmp_path / "out.json"}
    if subcommand == "cluster":
        argv["--model"] = tmp_path / "m.bin"
    argv[flag] = tmp_path if where == "directory" else tmp_path / "absent" / "f"
    assert run(subcommand, *[v for pair in argv.items() for v in pair]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json", "scene.json.manifest.json"]


def test_negative_noise_exit_1(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run("synth-gen", "--noise", "-0.5", "--out", out) == 1
    err = capsys.readouterr().err
    assert "argument --noise: must be a non-negative number" in err and err.count("\n") == 1
    assert not out.exists()
    assert run("synth-gen", "--noise", "0", "--out", out) == 0


@pytest.mark.parametrize("argv", [("train", "--epochs", "-1"),
                                  ("cluster", "--model", "m.bin", "--k", "-1")],
                         ids=["train-epochs", "cluster-k"])
def test_negative_count_exit_1(tmp_path, scene_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv[0], "--scene", scene_path, *argv[1:], "--out", out) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be a non-negative integer, got -1" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_dilemma_subcommand_report_and_manifest(tmp_path):
    out = tmp_path / "d.json"
    assert run("dilemma", "--out", out) == 0
    doc = read(out)
    assert doc["max_conv_spread"] == 0.0
    assert doc["max_semiconv_error"] == 0.0
    assert doc["centers"] == [-4, -2, 0, 2, 4]
    manifest = read(str(out) + ".manifest.json")
    assert manifest["subcommand"] == "dilemma"
    assert manifest["seeds"] == [0]
    assert manifest["version"].endswith("0.1.0")
    assert manifest["outputs"] == [str(out)]
    assert manifest["duration_s"] >= 0.0


def test_train_then_cluster_chain(tmp_path, scene_path):
    model = tmp_path / "model.bin"
    metrics = tmp_path / "metrics.json"
    assert run("train", "--scene", scene_path, "--epochs", 25, "--dims", 4,
               "--out", model) == 0
    assert run("cluster", "--scene", scene_path, "--model", model,
               "--out", metrics, "--render", tmp_path / "c.ppm") == 0
    doc = read(metrics)
    assert set(doc) == {"mean_iou", "purity", "mode", "final_loss"}
    assert doc["mode"] == "semiconv"
    assert 0.0 <= doc["mean_iou"] <= 1.0
    assert (tmp_path / "c.ppm").read_bytes().startswith(b"P6")


@pytest.mark.parametrize("mode", ["conv", "semiconv"])
def test_cluster_reads_the_cone_as_the_whole_image(tmp_path, mode):
    # cluster runs the backbone on the foreground's receptive cone; the
    # artifacts are those of a decode and a loss over the whole image's
    # field, byte for byte
    scene_file, model = tmp_path / "scene.json", tmp_path / "m.bin"
    assert run("synth-gen", "--rows", 2, "--cols", 2, "--noise", 0.05, "--out", scene_file) == 0
    assert run("train", "--scene", scene_file, "--mode", mode, "--epochs", 15,
               "--out", model) == 0
    assert run("cluster", "--scene", scene_file, "--model", model, "--mode", mode,
               "--seed", 4, "--out", tmp_path / "c.json", "--render", tmp_path / "c.ppm") == 0
    scene = synth.load_scene(scene_file)
    phi = image_forward(Backbone.load(model), scene.image)
    field = EmbeddingField(attach_coords(phi, coord_grid(*scene.shape)) if mode == "semiconv"
                           else phi)
    pred = synth.decode_kmeans(field, scene.gt.foreground_mask(), scene.gt.K, 4)
    want = synth.score(pred, scene.gt)
    want.update(mode=mode, final_loss=pull_to_mean_loss(
        field_rows(field), SegmentSet.from_labels(scene.gt)).item())
    write_json(tmp_path / "want.json", want)
    render.write_ppm(tmp_path / "want.ppm", render.render_labels(pred))
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert (tmp_path / "c.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()


def test_render_arrows_keeps_freed_memory_as_training_does(tmp_path, scene_path, monkeypatch,
                                                           fake_mallopt):
    # the malloc settings train runs under, no heap trimming and no mmap,
    # are set before the arrows' field is built
    model = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--epochs", 2, "--dims", 4, "--out", model) == 0
    fake_mallopt.clear()
    build = synth.cone_field
    monkeypatch.setattr(synth, "cone_field",
                        lambda *args: fake_mallopt.append("cone_field") or build(*args))
    assert run("render-arrows", "--scene", scene_path, "--model", model,
               "--out", tmp_path / "out") == 0
    assert fake_mallopt == [(-4, 0), (-1, 2**30), "cone_field"]


def test_render_arrows_draws_the_whole_image_field_from_the_cone_of_its_arrows(
        tmp_path, scene_path, monkeypatch):
    # the arrows are those of the whole-image field at the stride grid, and
    # the field forwarded lists the grid's pixels and no other
    model_path = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--epochs", 20, "--dims", 4,
               "--out", model_path) == 0
    scene, model = synth.load_scene(scene_path), Backbone.load(model_path)
    h, w = scene.shape
    whole = synth.build_field(model, scene.image, "semiconv")
    fields = []
    build = synth.cone_field

    def recording(*args):
        fields.append(build(*args))
        return fields[-1]

    monkeypatch.setattr(synth, "cone_field", recording)
    for stride in (1, 2, 3, 4, 8):
        pixels = np.arange(h * w).reshape(h, w)[::stride, ::stride].ravel()
        want = render.render_arrows(scene.image, pixels, displacement_field(whole, pixels))
        render.write_ppm(tmp_path / "want.ppm", want)
        assert run("render-arrows", "--scene", scene_path, "--model", model_path,
                   "--stride", stride, "--out", tmp_path / "got.ppm") == 0
        assert (tmp_path / "got.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()
        assert np.array_equal(np.flatnonzero(fields[-1].at.reshape(-1) >= 0), pixels)
    assert len(fields) == 5


# (argv without --out, the flag of a second artifact or None); {scene} and
# {model} stand for an input scene and a saved model
DETERMINISM_RUNS = {
    "train": (("train", "--scene", "{scene}", "--epochs", 20, "--dims", 4), "--losses"),
    "synth-gen": (("synth-gen", "--rows", 2, "--cols", 3, "--noise", 0.1), None),
    "seedcut": (("seedcut", "--scene", "{scene}", "--epochs", 10, "--dims", 4), "--render"),
    "render-arrows": (("render-arrows", "--scene", "{scene}", "--model", "{model}"), None),
    "dilemma": (("dilemma",), None),
    "gradcheck": (("gradcheck", "--instances", 2), None),
}


@pytest.mark.parametrize("case", DETERMINISM_RUNS)
def test_identical_flags_identical_bytes(tmp_path, scene_path, case):
    argv, extra = DETERMINISM_RUNS[case]
    model = tmp_path / "m.bin"
    Backbone.glorot(1, 4, 0).save(model)
    out, second = tmp_path / "out", tmp_path / "second"
    argv = [str(a).format(scene=scene_path, model=model) for a in argv] + ["--out", out]
    paths = [out]
    if extra:
        argv += [extra, second]
        paths.append(second)
    runs = []
    for _ in range(2):
        assert run(*argv) == 0
        manifest = read(str(out) + ".manifest.json")
        # the manifests agree on everything but wall clock and the output names
        manifest.pop("duration_s"), manifest.pop("outputs")
        runs.append(([p.read_bytes() for p in paths], manifest))
        for p in paths:
            p.unlink()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("subcommand,module,work", [("dilemma", dilemma_mod, "report"),
                                                     ("synth-gen", synth, "generate_scene")],
                         ids=["dilemma", "synth-gen"])
@pytest.mark.parametrize("message", ["Unable to allocate 58.2 TiB", ""], ids=["numpy", "bare"])
def test_memory_error_is_one_error_line(tmp_path, monkeypatch, capsys, subcommand, module, work,
                                        message):
    # stands in for an oversized flag (--half-extent 1e12, --rows 100000),
    # which a host that overcommits memory might grant
    def too_big(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, work, too_big)
    assert run(subcommand, "--out", tmp_path / "o.json") == 1
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
    assert list(tmp_path.iterdir()) == []


def test_config_file_overrides_flags(tmp_path, scene_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "lr": 0.01}))
    model = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--epochs", 500,
               "--config", cfg, "--out", model) == 0
    manifest = read(str(model) + ".manifest.json")
    assert manifest["config"]["epochs"] == 3
    assert manifest["config"]["lr"] == 0.01


def test_config_file_rejects_unknown_key(tmp_path, scene_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_speed": 9}))
    assert run("train", "--scene", scene_path, "--config", cfg,
               "--out", tmp_path / "m.bin") == 1
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ([1], "config file must hold a JSON object"),
    ({"epochs": [1]}, "config key 'epochs' must be a string or a number"),
    ({"epochs": True}, "config key 'epochs' must be a string or a number"),
], ids=["list", "list-value", "bool-value"])
def test_config_file_of_the_wrong_shape_exit_1(tmp_path, scene_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--config", cfg, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_malformed_config_json_exit_1(tmp_path, scene_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run("train", "--scene", scene_path, "--config", cfg,
               "--out", tmp_path / "m.bin") == 1


def test_divergent_training_exit_2(tmp_path, scene_path, capsys):
    # at lr 1e8 the loss overflows first; at 1e200 the weights already
    # overflow layer 1 of the next forward pass, and the message names it
    for lr, where in (("1e8", "step 3: non-finite values produced by op 'mul'"),
                      ("1e200", "step 1: layer 1: non-finite values produced by op 'conv2d'")):
        assert run("train", "--scene", scene_path, "--epochs", 5, "--lr", lr,
                   "--lr-decay", 0, "--out", tmp_path / "m.bin") == 2
        assert capsys.readouterr().err == f"numeric failure: training diverged at {where}\n"


def test_kmeans_seeding_overflow_exit_2(tmp_path, scene_path, capsys):
    # pixels and weights of 1e38 keep the conv finite (embeddings near 1e157),
    # but their squared distances overflow in the k-means seeding
    doc = read(scene_path)
    image = np.frombuffer(base64.b64decode(doc["image"]), dtype="<f4") * np.float32(1e38)
    doc["image"] = base64.b64encode(image.tobytes()).decode("ascii")
    scene = tmp_path / "bright.json"
    scene.write_text(json.dumps(doc))
    chans = (1, 16, 32, 8)
    model = tmp_path / "m.bin"
    Backbone([Tensor(np.full((c_out, c_in, 3, 3), 1e38)) for c_in, c_out in zip(chans, chans[1:])],
             [Tensor(np.zeros(c_out)) for c_out in chans[1:]]).save(model)
    out = tmp_path / "c.json"
    for mode in ("semiconv", "conv"):
        assert run("cluster", "--scene", scene, "--model", model, "--mode", mode,
                   "--out", out) == 2
        assert capsys.readouterr().err == ("numeric failure: k-means seeding: "
                                           "squared embedding distances overflow\n")
        assert not out.exists()


def test_gradcheck_subcommand(tmp_path):
    out = tmp_path / "gc.json"
    assert run("gradcheck", "--instances", 2, "--out", out) == 0
    doc = read(out)
    assert doc["ok"] is True
    assert set(doc["ops"]) == {"conv2d", "pull_to_mean_loss",
                               "steered_laplacian", "fuse_scores_soft",
                               "mask_bce"}
    assert all(v < doc["threshold"] for v in doc["ops"].values())


def test_gradcheck_failure_writes_the_report_and_exits_2(tmp_path, capsys, monkeypatch):
    report = {"ok": False, "ops": {"conv2d": 1.0}, "threshold": 1e-4, "instances_per_op": 2}
    monkeypatch.setattr(cli, "gradcheck_report", lambda instances, seed: report)
    out = tmp_path / "gc.json"
    assert run("gradcheck", "--instances", 2, "--out", out) == 2
    assert read(out) == report
    assert capsys.readouterr().err == "numeric failure: gradient check exceeded threshold\n"


def test_render_arrows_requires_semiconv(tmp_path, scene_path, capsys):
    # arrows read a semiconv field only, so there is no --mode to choose
    model = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--epochs", 2, "--dims", 4,
               "--out", model) == 0
    capsys.readouterr()
    assert run("render-arrows", "--scene", scene_path, "--model", model,
               "--mode", "semiconv", "--out", tmp_path / "a.ppm") == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --mode" in err and err.count("\n") == 1
    assert not (tmp_path / "a.ppm").exists()
    assert run("render-arrows", "--scene", scene_path, "--model", model,
               "--out", tmp_path / "a.ppm") == 0
    assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6")


def test_seedcut_subcommand_outputs(tmp_path, scene_path):
    out = tmp_path / "cuts.json"
    assert run("seedcut", "--scene", scene_path, "--epochs", 25, "--dims", 4,
               "--out", out, "--render", tmp_path / "cuts.ppm") == 0
    doc = read(out)
    assert len(doc["boxes"]) == len(doc["masks"]) == len(doc["ious"]) == 4
    assert doc["sigma"] > 0
    assert 0.0 <= doc["mean_iou"] <= 1.0


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_nonpositive_stride_exit_1(tmp_path, scene_path, capsys, stride):
    model = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--epochs", 0, "--dims", 4,
               "--out", model) == 0
    capsys.readouterr()
    out = tmp_path / "a.ppm"
    assert run("render-arrows", "--scene", scene_path, "--model", model,
               "--stride", stride, "--out", out) == 1
    err = capsys.readouterr().err
    assert "--stride" in err and err.count("\n") == 1
    assert not out.exists()


def test_config_values_are_type_checked(tmp_path, scene_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": "3", "dims": 4}))
    model = tmp_path / "m.bin"
    losses = tmp_path / "losses.json"
    assert run("train", "--scene", scene_path, "--epochs", 500, "--config", cfg,
               "--out", model, "--losses", losses) == 0
    assert read(str(model) + ".manifest.json")["config"]["epochs"] == 3
    assert len(read(losses)["losses"]) == 3
    capsys.readouterr()
    cfg.write_text(json.dumps({"epochs": "x"}))
    assert run("train", "--scene", scene_path, "--config", cfg,
               "--out", tmp_path / "m2.bin") == 1
    err = capsys.readouterr().err
    assert "--epochs" in err and err.count("\n") == 1


def test_truncated_model_exit_1(tmp_path, scene_path, capsys):
    model = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--epochs", 0, "--dims", 4,
               "--out", model) == 0
    blob = model.read_bytes()
    cut = tmp_path / "cut.bin"
    # inside the file header, inside a layer header, a header claiming 2^31 layers
    for bad in (blob[:10], blob[:20], blob[:8] + struct.pack("<I", 2 ** 31) + blob[12:]):
        cut.write_bytes(bad)
        capsys.readouterr()
        assert run("cluster", "--scene", scene_path, "--model", cut,
                   "--out", tmp_path / "c.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unchained_model_exit_1(tmp_path, scene_path, capsys):
    # layer 1 expects 6 input channels, layer 0 outputs 5
    weights = [Tensor(np.zeros((5, 1, 3, 3))), Tensor(np.zeros((8, 6, 3, 3)))]
    biases = [Tensor(np.zeros(5)), Tensor(np.zeros(8))]
    model = tmp_path / "m.bin"
    Backbone(weights, biases).save(model)
    assert run("cluster", "--scene", scene_path, "--model", model,
               "--out", tmp_path / "c.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "layer 1" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scene_pixel_exit_1(tmp_path, scene_path, capsys, bad):
    doc = read(scene_path)
    image = np.frombuffer(base64.b64decode(doc["image"]), dtype="<f4").copy()
    image[5] = bad
    doc["image"] = base64.b64encode(image.tobytes()).decode("ascii")
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps(doc))
    out = tmp_path / "m.bin"
    assert run("train", "--scene", scene, "--epochs", 1, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == "error: scene image holds a non-finite pixel\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("part", ["weights", "biases"])
def test_non_finite_model_weight_exit_1(tmp_path, scene_path, capsys, bad, part):
    model = Backbone.glorot(1, 4, 0)
    getattr(model, part)[1].data.flat[3] = bad
    path = tmp_path / "m.bin"
    model.save(path)
    out = tmp_path / "c.json"
    assert run("cluster", "--scene", scene_path, "--model", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == "error: model layer 1 holds a non-finite weight or bias\n"
    assert not out.exists()


@pytest.mark.parametrize("doc,message", [
    ([1], "scene file must hold a JSON object"),
    ({"h": 2, "w": 2, "image": 5, "labels": ""}, "scene field 'image' must be a base64 string"),
    ({"h": 0, "w": 2, "image": "", "labels": ""}, "scene field 'h' must be a positive integer"),
    ({"h": True, "w": 2, "image": "", "labels": ""},
     "scene field 'h' must be a positive integer"),
    ({"h": 2, "w": "2", "image": "", "labels": ""},
     "scene field 'w' must be a positive integer"),
], ids=["list", "image-not-string", "h-zero", "h-bool", "w-string"])
def test_malformed_scene_exit_1(tmp_path, capsys, doc, message):
    scene = tmp_path / "s.json"
    scene.write_text(json.dumps(doc))
    assert run("train", "--scene", scene, "--epochs", 0,
               "--out", tmp_path / "m.bin") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--scene", "--config"])
def test_deeply_nested_json_exit_1(tmp_path, scene_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    paths = {"--scene": scene_path, "--config": empty, flag: deep}
    out = tmp_path / "m.bin"
    assert run("train", "--scene", paths["--scene"], "--config", paths["--config"],
               "--epochs", 0, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:]} file {deep} nests too deeply\n"
    assert not out.exists()


def test_dilemma_zero_step_exit_1(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run("dilemma", "--step", 0, "--out", out) == 1
    assert capsys.readouterr().err == "error: step must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [("dilemma", "--half-extent", "inf"),
                                  ("train", "--scene", "s.json", "--lr", "nan"),
                                  ("synth-gen", "--noise", "nan")],
                         ids=["dilemma", "train", "synth-gen"])
def test_non_finite_float_flag_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be a finite number" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,name,bad,rule", [
    (("synth-gen", "--rows"), "positive_int", "0", "be a positive integer"),
    (("cluster", "--scene", "s", "--model", "m", "--k"), "non_negative_int", "-1",
     "be a non-negative integer"),
    (("dilemma", "--step"), "finite_float", "inf", "be a finite number"),
    (("synth-gen", "--noise"), "non_negative_float", "-0.5", "be a non-negative number"),
    (("seedcut", "--scene", "s", "--threshold"), "open_unit_float", "1",
     "lie strictly between 0 and 1"),
], ids=["positive_int", "non_negative_int", "finite_float", "non_negative_float",
        "open_unit_float"])
def test_each_flag_type_names_itself_and_its_rule(tmp_path, capsys, argv, name, bad, rule):
    out = tmp_path / "out"
    for value, message in [("x", f"invalid {name} value: 'x'"), (bad, f"must {rule}, got {bad}")]:
        assert run(*argv, value, "--out", out) == 1
        assert capsys.readouterr().err == f"error: argument {argv[-1]}: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threshold", ["1.5", "0", "1"])
def test_threshold_outside_open_unit_interval_exit_1(tmp_path, scene_path, capsys, threshold):
    out = tmp_path / "cuts.json"
    assert run("seedcut", "--scene", scene_path, "--threshold", threshold,
               "--out", out) == 1
    err = capsys.readouterr().err
    assert "argument --threshold: must lie strictly between 0 and 1" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_threshold_inside_open_unit_interval_cuts_there(tmp_path, scene_path):
    out = tmp_path / "cuts.json"
    assert run("seedcut", "--scene", scene_path, "--epochs", 10, "--dims", 4,
               "--threshold", "0.3", "--out", out) == 0
    assert read(str(out) + ".manifest.json")["config"]["threshold"] == 0.3
    scene = synth.load_scene(scene_path)
    model, params, _ = seedcut_mod.train_seedcut(
        scene, seedcut_mod.gt_boxes_from_labels(scene.gt),
        synth.TrainConfig(dims=4, epochs=10), params=KernelParams("steered_laplacian", sigma=1.0))
    cuts = {t: seedcut_mod.cut_all_boxes(scene, model, params, threshold=t) for t in (0.3, 0.5)}
    masks, _, ious = cuts[0.3]
    doc = read(out)
    assert doc["masks"] == json.loads(json.dumps([seedcut_mod.rle_encode(m) for m in masks]))
    assert doc["ious"] == ious
    assert any(not np.array_equal(a, b) for a, b in zip(masks, cuts[0.5][0]))


def test_conv_cluster_with_coinciding_embeddings(tmp_path):
    # every dot of the periodic 8x8 grid has the same conv embeddings, so
    # k-means leaves clusters empty; the decode numbers the filled ones
    scene, model, out = tmp_path / "s.json", tmp_path / "c.bin", tmp_path / "m.json"
    assert run("synth-gen", "--rows", 8, "--cols", 8, "--spacing", 10, "--out", scene) == 0
    assert run("train", "--scene", scene, "--mode", "conv", "--epochs", 0,
               "--out", model) == 0
    assert run("cluster", "--scene", scene, "--model", model, "--mode", "conv",
               "--out", out) == 0
    assert read(out)["mean_iou"] < 0.5


def test_write_json_leaves_no_partial_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(NumericError):
        write_json(path, {"x": float("nan")})
    assert not path.exists()


def test_train_config_fields_are_cli_flags(tmp_path, scene_path, monkeypatch):
    seen = []

    def fake_train(scene, cfg):
        seen.append(cfg)
        return Backbone.glorot(1, cfg.dims, cfg.seed), []

    monkeypatch.setattr(synth, "train", fake_train)
    assert run("train", "--scene", scene_path, "--mode", "conv", "--dims", 3,
               "--epochs", 7, "--lr", 0.5, "--lr-decay", 0.25, "--seed", 9,
               "--out", tmp_path / "m.bin") == 0
    # every field carries its flag's value: no setting the CLI cannot reach
    assert dataclasses.asdict(seen[0]) == dict(mode="conv", dims=3, epochs=7, lr=0.5,
                                               lr_decay=0.25, seed=9)


def test_train_flag_defaults_are_the_train_config_defaults(tmp_path, scene_path, monkeypatch):
    seen = []

    def fake_train(scene, cfg):
        seen.append(cfg)
        return Backbone.glorot(1, cfg.dims, cfg.seed), []

    monkeypatch.setattr(synth, "train", fake_train)
    assert run("train", "--scene", scene_path, "--out", tmp_path / "m.bin") == 0
    assert seen == [synth.TrainConfig()]


@pytest.mark.parametrize("subcommand", ["train", "seedcut"])
@pytest.mark.parametrize("epochs", [0, 3])
def test_semiconv_with_one_dim_exit_1_before_training(tmp_path, scene_path, capsys,
                                                      subcommand, epochs):
    # the x and y offsets need two channels
    out = tmp_path / "out"
    assert run(subcommand, "--scene", scene_path, "--dims", 1, "--epochs", epochs,
               "--out", out) == 1
    assert capsys.readouterr().err == "error: semiconv mode needs dims >= 2\n"
    assert not out.exists()


def test_conv_with_one_dim_trains(tmp_path, scene_path):
    out = tmp_path / "m.bin"
    assert run("train", "--scene", scene_path, "--mode", "conv", "--dims", 1,
               "--epochs", 3, "--out", out) == 0
    assert Backbone.load(out).weights[-1].data.shape[0] == 1


def test_scene_with_too_many_instances_exit_1(tmp_path, monkeypatch, capsys):
    labels = np.arange(1, 65537).reshape(256, 256)
    big = synth.Scene(Tensor(np.zeros((1, 256, 256))), synth.InstanceLabeling(labels), {})
    monkeypatch.setattr(synth, "generate_scene", lambda *args: big)
    assert run("synth-gen", "--out", tmp_path / "s.json") == 1
    err = capsys.readouterr().err
    assert "65535" in err and err.count("\n") == 1


def scene_without_instances(tmp_path, scene_path):
    """The scene at scene_path with every label 0, written next to it."""
    doc = read(scene_path)
    doc["labels"] = base64.b64encode(np.zeros(doc["h"] * doc["w"], "<u2").tobytes()).decode()
    scene = tmp_path / "empty.json"
    scene.write_text(json.dumps(doc))
    return scene


@pytest.mark.parametrize("subcommand", ["train", "seedcut"])
@pytest.mark.parametrize("epochs", [0, 3])
def test_scene_without_instances_exit_1_before_training(tmp_path, scene_path, capsys,
                                                        subcommand, epochs):
    scene = scene_without_instances(tmp_path, scene_path)
    out = tmp_path / "out"
    assert run(subcommand, "--scene", scene, "--epochs", epochs, "--out", out) == 1
    assert capsys.readouterr().err == "error: no segments to evaluate\n"
    assert not out.exists()


def test_cluster_on_a_scene_without_instances_exit_1(tmp_path, scene_path, capsys):
    scene, model = scene_without_instances(tmp_path, scene_path), tmp_path / "m.bin"
    Backbone.glorot(1, 8, 0).save(model)
    out = tmp_path / "out"
    assert run("cluster", "--scene", scene, "--model", model, "--out", out) == 1
    assert capsys.readouterr().err == ("error: a receptive cone needs pixels, "
                                       "but the pixel list is empty\n")
    assert not out.exists()
