"""Spans around calls into the semiconv modules, and self-time arithmetic.

The traced run wraps public functions of the package from the outside: it
replaces module and class attributes for the length of the run and puts the
originals back afterwards, so the program itself carries no tracing code.
Each wrapped call records a span ``[name, start, end, parent, run_id]``
(times from ``time.perf_counter``, ``parent`` an index into the span list or
-1) into an in-memory list that the benchmark writes out when it ends.

Backward passes have no call per layer to wrap, so the tape nodes that a
wrapped forward call adds (conv2d, the pull-to-mean loss, the seed-cut box
loss) get their backward closures wrapped instead; ``Tensor.backward`` replays
them inside its own span, which makes them its children.

Training steps have no call to wrap either. ``synth.sgd_step`` ends every
step, so its wrapper closes a ``synth.train.step`` span that reaches back to
the previous step's end and adopts the step's top-level spans. Tracing is on
for every other step; the steps with it off give the untraced step time that
the tracing overhead is measured against.
"""

import functools
import sys
import time

import numpy as np

NAME, START, END, PARENT, RUN = range(5)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are the spans whose parent index points at the span. Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for s, kids in zip(spans, children):
        start, end = s[START], s[END]
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((max(spans[k][START], start), min(spans[k][END], end))
                           for k in kids):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


class Tracer:
    """In-memory span list plus the counts recorded at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.run_id = "setup"
        self.counts = {}           # count name -> last value recorded
        self.seed_hits = [0, 0]    # boxes whose hard seed hit their instance, boxes
        self.step_times = []       # (traced, seconds) per training step after the first
        self.gt_labels = None      # label map the cut boxes are checked against
        self._stack = []
        self._layer_of = {}
        self._last_seed = None
        self._train = None

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def tag_backward(self, out, base, name, T):
        """Wrap the backward closure of every node ``out`` adds on top of ``base``.

        Returns the number of nodes added, as ``Tensor.backward`` walks them.
        """
        old = {id(n) for n in T._topo_order(base)}
        new = [n for n in T._topo_order(out) if id(n) not in old]
        for n in new:
            if n._backward is not None:
                n._backward = functools.partial(self.call, name, n._backward)
        return len(new)

    # -- training steps ------------------------------------------------------

    def start_train(self, label):
        self._train = {"label": label, "step": 0, "start": time.perf_counter(),
                       "mark": len(self.spans)}
        self.enabled = True
        self.run_id = f"{label}#0"

    def end_step(self, traced):
        now = time.perf_counter()
        st = self._train
        if st["step"] > 0:
            self.step_times.append((traced, now - st["start"]))
            if traced:
                idx = len(self.spans)
                for s in self.spans[st["mark"]:]:
                    if s[PARENT] == -1:
                        s[PARENT] = idx
                self.spans.append(["synth.train.step", st["start"], now, -1, self.run_id])
        st["step"] += 1
        st["start"] = now
        st["mark"] = len(self.spans)
        self.enabled = not traced
        self.run_id = f"{st['label']}#{st['step']}"

    def end_train(self):
        self._train = None
        self.enabled = False


def install(tracer):
    """Wrap the package's public functions; returns a callable that undoes it."""
    from semiconv import (backbone, embedding, kernels, losses, render, seedcut,
                          synth, tensor as T)

    restore = []

    def replace(orig, new):
        # a function imported by name into another module is bound there too
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("semiconv"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    restore.append((mod, attr, orig))

    def replace_method(cls, attr, new):
        restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    for mod, fn, name in (
            (embedding, "attach_coords", "embedding.attach_coords"),
            (embedding, "field_rows", "embedding.field_rows"),
            (losses, "mask_bce", "losses.mask_bce.fwd"),
            (synth, "decode_kmeans", "synth.decode_kmeans"),
            (synth, "score", "synth.score"),
            (synth, "generate_scene", "synth.generate_scene"),
            (seedcut, "cut_all_boxes", "seedcut.cut_all_boxes"),
            (seedcut, "rle_encode", "seedcut.rle_encode"),
            (render, "render_labels", "render.render_labels")):
        orig = getattr(mod, fn)
        replace(orig, tracer.timed(name, orig))

    orig_conv = T.conv2d

    @functools.wraps(orig_conv)
    def conv2d(x, weight, *args, **kwargs):
        if not tracer.enabled:
            return orig_conv(x, weight, *args, **kwargs)
        layer = tracer._layer_of.get(id(weight))
        name = "tensor.conv2d" if layer is None else f"tensor.conv2d.l{layer}"
        out = tracer.call(name + ".fwd", orig_conv, x, weight, *args, **kwargs)
        c_out, c_in, kh, kw = weight.data.shape
        tracer.counts[name + ".gflop"] = 2.0 * out.data.size * c_in * kh * kw / 1e9
        if out._backward is not None:
            out._backward = functools.partial(tracer.call, name + ".bwd", out._backward)
        return out

    replace(orig_conv, conv2d)

    orig_forward = backbone.Backbone.forward

    @functools.wraps(orig_forward)
    def forward(self, x):
        if not tracer.enabled:
            return orig_forward(self, x)
        tracer._layer_of = {id(w): i for i, w in enumerate(self.weights)}
        return tracer.call("backbone.forward", orig_forward, self, x)

    replace_method(backbone.Backbone, "forward", forward)

    orig_backward = T.Tensor.backward

    @functools.wraps(orig_backward)
    def backward(self):
        if not tracer.enabled:
            return orig_backward(self)
        tracer.counts["tensor.tape_nodes"] = len(T._topo_order(self))
        return tracer.call("tensor.backward", orig_backward, self)

    replace_method(T.Tensor, "backward", backward)

    orig_from_labels = losses.SegmentSet.__dict__["from_labels"].__func__
    replace_method(losses.SegmentSet, "from_labels",
                   classmethod(tracer.timed("losses.segment_set", orig_from_labels)))

    orig_loss = losses.pull_to_mean_loss

    @functools.wraps(orig_loss)
    def pull_to_mean_loss(field, *args, **kwargs):
        if not tracer.enabled:
            return orig_loss(field, *args, **kwargs)
        out = tracer.call("losses.pull_to_mean.fwd", orig_loss, field, *args, **kwargs)
        values = getattr(field, "values", field)
        tracer.counts["losses.pull_to_mean.nodes"] = tracer.tag_backward(
            out, values, "losses.pull_to_mean.bwd", T)
        return out

    replace(orig_loss, pull_to_mean_loss)

    orig_fuse = kernels.fuse_scores

    @functools.wraps(orig_fuse)
    def fuse_scores(*args, **kwargs):
        if not tracer.enabled:
            return orig_fuse(*args, **kwargs)
        out = tracer.call("kernels.fuse_scores.fwd", orig_fuse, *args, **kwargs)
        tracer._last_seed = out.seed_index
        return out

    replace(orig_fuse, fuse_scores)

    orig_cut_region = seedcut.cut_region

    @functools.wraps(orig_cut_region)
    def cut_region(region, *args, **kwargs):
        mask = orig_cut_region(region, *args, **kwargs)
        if tracer.enabled and tracer.gt_labels is not None:
            x0, y0, x1, y1 = region.rect
            patch = tracer.gt_labels[y0:y1, x0:x1]
            ids, counts = np.unique(patch[patch > 0], return_counts=True)
            seed_label = patch.reshape(-1)[tracer._last_seed]
            tracer.seed_hits[0] += int(ids.size > 0 and seed_label == ids[np.argmax(counts)])
            tracer.seed_hits[1] += 1
        return mask

    replace(orig_cut_region, cut_region)

    orig_sgd = synth.sgd_step

    @functools.wraps(orig_sgd)
    def sgd_step(*args, **kwargs):
        traced = tracer.enabled
        out = (tracer.call("synth.sgd_step", orig_sgd, *args, **kwargs) if traced
               else orig_sgd(*args, **kwargs))
        if tracer._train is not None:
            tracer.end_step(traced)
        return out

    replace(orig_sgd, sgd_step)

    orig_train = synth.train

    @functools.wraps(orig_train)
    def train(scene, cfg, extra_loss=None, extra_params=()):
        if extra_loss is not None:
            inner = extra_loss

            def extra_loss(field):
                if not tracer.enabled:
                    return inner(field)
                out = tracer.call("seedcut.box_loss.fwd", inner, field)
                tracer.tag_backward(out, field.values, "seedcut.box_loss.bwd", T)
                return out

        tracer.start_train(f"train:{cfg.mode}")
        try:
            return orig_train(scene, cfg, extra_loss, extra_params)
        finally:
            tracer.end_train()

    replace(orig_train, train)

    def undo():
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)

    return undo
