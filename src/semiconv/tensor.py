"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

Every learnable quantity in the package flows through :class:`Tensor`. Ops
record parent links and a backward closure on the result node; the graph of
parent links is the tape, and ``backward()`` replays the closures in reverse
topological order. Construction order is deterministic, so replay order (and
therefore gradient accumulation order) is bit-reproducible.

Design choices: float64 everywhere, no views that could alias a mutated
buffer into a recorded op. An op may apply a ReLU to its own fresh output
before that output is recorded (conv2d's ``relu``), so a hidden layer keeps
one activation buffer, not a pre-ReLU copy too. The elementwise binary ops
broadcast like NumPy; their backward sums the gradient over the axes an input
was stretched along. Forward ops validate finiteness; NaN/Inf raises
:class:`NumericError` instead of propagating silently, and an op that
applies a ReLU checks its output before the ReLU, which would hide a -inf.
"""

import numpy as np

NORM_EPS = 1e-8  # epsilon inside norms; keeps sqrt differentiable at 0
GRAD_CHECK_STEP = 1e-5  # central-difference step of grad_check
TAP_BAND = 2**18  # floats of an inference forward's tap buffer, one band of outputs: 2 MB


class NumericError(ArithmeticError):
    """A forward value or a training step produced NaN/Inf."""


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


class Tensor:
    """Dense float64 n-d array with optional gradient-tape participation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def backward(self):
        """Accumulate gradients of this scalar into every requires_grad leaf.

        Replays the recorded backward closures in reverse topological order,
        visiting each node exactly once. The walk spends the tape: once an
        interior node's closure has run, the node drops its ``grad``, its
        closure and its parent links, so each buffer lives only until its last
        reader has run. Only leaves keep ``.grad``, and the graph cannot be
        walked a second time.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        self.grad = np.ones_like(self.data)
        order = _topo_order(self)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _topo_order(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in reversed(node._parents):
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _coerce(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _node(data, parents, backward_fn, op, checked=False):
    # ``checked``: the op checked its output itself
    if not checked:
        _check_finite(data, op)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    out._op = op
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:  # t was broadcast: sum g over the stretched axes
        lead = g.ndim - t.data.ndim
        stretched = [lead + i for i, n in enumerate(t.data.shape) if n != g.shape[lead + i]]
        g = g.sum(axis=tuple(range(lead)) + tuple(stretched)).reshape(t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


# -- elementwise ---------------------------------------------------------

def add(a, b):
    a, b = _coerce(a), _coerce(b)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), backward, "add")


def sub(a, b):
    a, b = _coerce(a), _coerce(b)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(a.data - b.data, (a, b), backward, "sub")


def mul(a, b):
    a, b = _coerce(a), _coerce(b)

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), backward, "mul")


def div(a, b):
    a, b = _coerce(a), _coerce(b)

    def backward(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _node(a.data / b.data, (a, b), backward, "div")


def exp(a):
    a = _coerce(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accum(a, g * out_data)

    return _node(out_data, (a,), backward, "exp")


def log(a):
    a = _coerce(a)
    if np.any(a.data <= 0):
        raise ValueError("log of non-positive input")

    def backward(g):
        _accum(a, g / a.data)

    return _node(np.log(a.data), (a,), backward, "log")


def sqrt(a):
    a = _coerce(a)
    if np.any(a.data < 0):
        raise ValueError("sqrt of negative input")
    out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g / (2.0 * out_data))

    return _node(out_data, (a,), backward, "sqrt")


def sigmoid(a):
    a = _coerce(a)
    out_data = np.where(a.data >= 0,
                        1.0 / (1.0 + np.exp(-np.abs(a.data))),
                        np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

    def backward(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward, "sigmoid")


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient passes where the input lies inside."""
    a = _coerce(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        _accum(a, g * inside)

    return _node(np.clip(a.data, lo, hi), (a,), backward, "clamp")


# -- shape ops ------------------------------------------------------------

def reshape(a, shape):
    a = _coerce(a)
    orig = a.data.shape

    def backward(g):
        _accum(a, g.reshape(orig))

    return _node(a.data.reshape(shape), (a,), backward, "reshape")


def _scatter(rows, ids, n):
    """out[n, ...] with out[k] the sum of rows[ids == k], added in index order.

    One bincount over every entry: entry (i, j) of the rows flattened to
    [N, M] goes to bin ids[i] * M + j, and bincount adds each bin's weights
    in entry order, from 0.0, as np.add.at does (at about a quarter of
    np.add.at's time for 8 columns).
    """
    m = int(np.prod(rows.shape[1:]))
    bins = (np.asarray(ids)[:, None] * m + np.arange(m)).reshape(-1)
    return np.bincount(bins, rows.reshape(-1), n * m).reshape((n,) + rows.shape[1:])


def index_select(a, indices):
    """Gather rows along axis 0; backward scatter-adds (duplicates accumulate)."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-d")
    if idx.size and idx.min() < 0:
        raise ValueError("indices must be non-negative")

    def backward(g):
        _accum(a, _scatter(g, idx, a.data.shape[0]))

    return _node(np.take(a.data, idx, axis=0), (a,), backward, "index_select")


def take_columns(a, indices):
    """The columns of a[C, ...], its trailing axes flattened to [C, P], at
    ``indices``, as contiguous [N, C] rows: row n is column indices[n].

    Backward scatter-adds the rows into the columns (duplicates accumulate)
    and hands on the transpose of the [P, C] sum, a [C, P] array in Fortran
    order, reshaped to a's shape. An index that is not 1-d, or off the P
    columns, is a one-line error.
    """
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    cols = a.data.reshape(a.data.shape[0], -1)
    if idx.ndim != 1:
        raise ValueError("column indices must be 1-d")
    if idx.size and (idx.min() < 0 or idx.max() >= cols.shape[1]):
        raise ValueError(f"column indices must lie in [0, {cols.shape[1]})")

    def backward(g):
        _accum(a, _scatter(g, idx, cols.shape[1]).T.reshape(a.data.shape))

    return _node(cols.T[idx], (a,), backward, "take_columns")


def segment_sum(rows, ids, K):
    """Sum the rows of ``rows[N, ...]`` into ``K`` segments: out[k] = sum of rows[ids == k].

    Rows are added in index order, so the result is bit-reproducible; a
    segment no id names is a zero row. Backward gathers the gradient, g[ids].
    """
    rows = _coerce(rows)
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or rows.data.ndim < 1 or ids.size != rows.data.shape[0]:
        raise ValueError("segment_sum needs rows[N, ...] and ids[N]")
    if ids.size and (ids.min() < 0 or ids.max() >= K):
        raise ValueError(f"segment ids must lie in [0, {K})")

    def backward(g):
        _accum(rows, g[ids])

    return _node(_scatter(rows.data, ids, K), (rows,), backward, "segment_sum")


# -- reductions -----------------------------------------------------------

def tsum(a, axes=None):
    """Sum over one axis, or over every axis when ``axes`` is None."""
    a = _coerce(a)
    if 0 in (a.data.shape if axes is None else (a.data.shape[axes],)):
        raise ValueError("empty reduction axis")
    kept = a.data.sum(axis=axes, keepdims=True)

    def backward(g):
        _accum(a, np.broadcast_to(g.reshape(kept.shape), a.data.shape))

    return _node(kept.squeeze(axis=axes), (a,), backward, "sum")


def softmax(a):
    """Softmax over the last axis."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _node(out_data, (a,), backward, "softmax")


def l2norm_rows(a):
    """Row norms of an [N, D] tensor: sqrt(sum_d a[n,d]^2 + NORM_EPS).

    NORM_EPS keeps the result differentiable at zero rows.
    """
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ValueError("l2norm_rows expects an [N, D] tensor")
    return sqrt(add(tsum(mul(a, a), axes=1), NORM_EPS))


# -- convolution ------------------------------------------------------------

def tap_pixels(shape, pixels, kh, kw):
    """The image pixel each tap of a circular kh x kw correlation reads, as [kh*kw, N].

    ``pixels`` are N linear, row-major indices of an [H, W] image. Entry
    [t, n] is the pixel tap t = (i, j) reads for pixels[n]: the one
    (i - kh//2, j - kw//2) away, wrapping around the image edges as conv2d
    does. Taps run in _taps' row order.
    """
    h, w = shape
    y, x = np.divmod(np.asarray(pixels, dtype=np.intp), w)
    ys = (np.arange(kh)[:, None] - kh // 2 + y) % h * w
    xs = (np.arange(kw)[:, None] - kw // 2 + x) % w
    return (ys[:, None] + xs).reshape(kh * kw, -1)


def neighbour_table(taps, src, n_pixels, adjoint=True):
    """conv2d's Neighbours from the pixel list ``src`` to output pixels whose
    taps read ``taps`` (tap_pixels, [T, N]): each tap's position in ``src``,
    carrying its adjoint (_adjoint), which conv2d's backward reads to send a
    gradient into ``src``. With ``adjoint`` False the table carries None,
    for a layer whose backward reads none (conv2d says when it does). Over
    every pixel of an image each tap permutes the pixels, so the adjoint
    holds the table's own entries, with no -1.

    Both lists are linear indices of an image of ``n_pixels`` pixels;
    ``src`` lists each pixel at most once and must hold every tap, so every
    entry lies in [0, len(src)), and every adjoint entry in [-1, N). The
    entries are stored as int32, half of intp's width: a list is shorter
    than 2**31 pixels, whose float64 channel alone would take 16 GB.
    """
    where = np.full(n_pixels, -1, dtype=np.int32)
    where[src] = np.arange(len(src))
    table = where[taps]
    if table.size and table.min() < 0:
        raise ValueError("the source list lacks a tap of an output pixel")
    back = Neighbours(_adjoint(table, len(src)), table.shape[1]) if adjoint else None
    return Neighbours(table, len(src), back)


class Neighbours:
    """A neighbour table [T, N] from N output pixels into a list of n_src
    pixels, as conv2d reads it, built once and read-only.

    Entry [t, n] of ``table`` is the list position tap t of output n reads,
    or -1 where no listed pixel is, which reads zeros; ``holes`` says whether
    any entry is -1. ``gather``, the taps' index, is the table followed by -1
    columns up to a multiple of 8, and ``table`` is a view of it; both are
    int32. ``adjoint`` is the Neighbours [T, n_src] from the listed pixels
    back to the outputs, which conv2d's backward reads, and None on an
    adjoint and on a table made without one. The entries are taken as given:
    their maker, neighbour_table, writes them in [-1, n_src).
    """

    __slots__ = ("table", "gather", "n_src", "adjoint", "holes")

    def __init__(self, table, n_src, adjoint=None):
        t, n = table.shape
        self.gather = np.full((t, n + (-n) % 8), -1, dtype=np.int32)
        self.gather[:, :n] = table
        self.gather.flags.writeable = False
        self.table = self.gather[:, :n]
        self.n_src = n_src
        self.adjoint = adjoint
        self.holes = table.size > 0 and table.min() < 0


def _adjoint(table, n_src):
    """The adjoint of a neighbour table [T, N] into n_src source pixels: the
    int32 table [T, n_src] from the source pixels back to the outputs.

    A tap is a fixed shift, so each row of the table is one-to-one, and
    output n reads source pixel table[t, n] through tap t exactly when that
    source pixel's opposite tap, T-1-t, lands on n: adjoint[T-1-t,
    table[t, n]] = n, and -1 where no output is there.
    """
    t = table.shape[0]
    adjoint = np.full(t * n_src, -1, dtype=np.int32)
    adjoint[table + (np.arange(t)[::-1, None] * n_src)] = np.arange(table.shape[1])
    return adjoint.reshape(t, n_src)


def _padded(a):
    """The columns of a[C, N], then zero columns up to the next multiple of
    8 past N: at least one, so a table entry -1 reads zeros.

    OpenBLAS's dgemm sums the last N mod 8 columns of a product in another
    order than the rest, so a pixel's value would depend on where it sits.
    Every product over pixels here has a multiple of 8 columns, zero columns
    added as these are when it would not, so every pixel is summed in one
    order.
    """
    n = a.shape[1]
    out = np.zeros((a.shape[0], n + 8 - n % 8))
    out[:, :n] = a
    return out


def _taps(src, index, out=None):
    """The taps of columns src[C, P'] at an int32 index [T, M], a
    Neighbours' gather or a band of its columns: [C*T, M], row (c, t)
    holding src's columns at index[t], so a kernel reshaped to [C_out, C*T]
    correlates by one product. ``out`` is a [C, T, M] buffer to fill.

    ``src`` is the P columns a Neighbours table reads, or _padded of them
    when the table holds a -1 (Neighbours.holes): its last column is the
    zeros -1 reads. Without one, the gather's pad columns past the outputs
    read the last pixel, which no product keeps.

    Every gather reads its index in wrap mode, where -1 is the last column,
    as in numpy's default raise mode, but no entry is bounds-checked:
    neighbour_table wrote them all in range.
    """
    return np.take(src, index, axis=1, mode="wrap", out=out).reshape(-1, index.shape[1])


def _fold(out, z, i, kh, kw, table):
    """Add kernel row i's share of the adjoint of ``_taps`` into out[C, N].

    The adjoint sums the kh*kw row blocks of z[C*kh*kw, M] into the N output
    pixels of the Neighbours table [kh*kw, N], so <adjoint(z), a> == <z, the
    taps of a over the table's adjoint> for every a[C, N]. Here z holds
    kernel row i's kw blocks only, as [kw*C, M] in rows (j, c), its columns
    a source list's, with zero columns last where the table holds -1
    (_padded); calling this for i = 0, 1, ... into one zero array adds every
    pixel's blocks in the same order. Output n adds block t's column
    table[T-1-t, n], the pixel the opposite tap brings to it (an entry -1
    reads the block's last column, a zero one).
    """
    c = out.shape[0]
    z = z.reshape(kw, c, -1)
    for j in range(kw):
        out += np.take(z[j], table.table[kh * kw - 1 - i * kw - j], axis=1, mode="wrap")


def _correlate(a, k, table, keep=True):
    """Circular correlation of a[C_a, P] with k[C_o, C_a, kh, kw] at the N
    output pixels of the Neighbours table [kh*kw, N] into a's P:
    (out[C_o, N], taps).

    The one place that picks the narrower channel side, so no buffer has more
    than kh*kw*min(C_a, C_o) rows. When C_a <= C_o, out is k times the taps
    of a (_taps): with ``keep`` one product, whose taps are returned for
    reuse, and otherwise a band of about TAP_BAND floats of taps at a time,
    each gathered into one reused buffer, and taps is None. Otherwise out is
    ``_fold`` of the tap-flipped kernel times a, taken one kernel row at a
    time, so the product holds kw*C_o rows, not kh*kw*C_o, and taps is None;
    a is read in place when it has a multiple of 8 pixels and the table no
    -1. Every product and every band has a multiple of 8 columns (_padded)
    and sums each pixel in one order, and a kernel row's product has the
    bits of its rows of the whole kernel's product: every output column is
    the one any table, the one over every pixel of the image included, gives
    its pixel, bit for bit.
    """
    c_o, c_a, kh, kw = k.shape
    n = table.table.shape[1]
    if c_a <= c_o:
        flat, m = k.reshape(c_o, -1), table.gather.shape[1]
        src = _padded(a) if table.holes else a
        band = m if keep else max(8, TAP_BAND // flat.shape[1] // 8 * 8)
        buf = np.empty(flat.shape[1] * min(band, m))
        out = np.empty((c_o, m))
        for lo in range(0, m, band):
            index = table.gather[:, lo:lo + band]
            taps = _taps(src, index, buf[:flat.shape[1] * index.shape[1]].reshape(c_a, *index.shape))
            np.matmul(flat, taps, out=out[:, lo:lo + index.shape[1]])
        # the gather's pad columns past the outputs: cropped
        return out[:, :n], taps if keep else None
    # rows (i; j, o): kernel row i's blocks are k_flip[i], each block contiguous
    k_flip = k[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh, -1, c_a)
    a = a if a.shape[1] % 8 == 0 and not table.holes else _padded(a)
    out = np.zeros((c_o, n))
    for i in range(kh):
        _fold(out, k_flip[i] @ a, i, kh, kw, table)
    return out, None


def conv2d(x, weight, bias=None, *, table, relu=False):
    """Circular 2-d cross-correlation of a pixel list x[C_in, P] of an
    image with weight[C_out, C_in, kh, kw] at the output pixels of the
    Neighbours ``table``, followed by a ReLU when ``relu`` is set.

    ``table`` is what neighbour_table gives: the [kh*kw, N] table from N
    output pixels into x's P, which hold every tap, carrying its
    [kh*kw, P] ``adjoint``, from x's pixels back to the outputs. Odd kernels
    only; stride 1, and each tap wraps around the image edges (tap_pixels).
    The output is [C_out, N], each column the image's correlation at its
    pixel, with the same bits in whatever list it is computed; over the table
    of every pixel it is the whole image's output in row-major order, and
    exactly equivariant to circular shifts.

    The forward is ``_correlate(x, weight, table)``, and the input gradient
    is the same correlation of the upstream gradient g over
    ``table.adjoint`` with the flipped, channel-swapped kernel,
    ``weight[:, :, ::-1, ::-1]`` with its channel axes swapped. When
    C_in <= C_out the weight gradient is g times the taps of x, which a
    forward keeps when its weight requires a gradient (and otherwise
    gathers a band at a time). Otherwise it is the taps of g times x with
    the tap axes flipped back, the taps that the input gradient's
    correlation keeps. The backward reads the adjoint, and runs that
    correlation, exactly when x requires a gradient, or the weight does and
    C_in > C_out; only then must the table carry its adjoint. Both tables
    are read as neighbour_table made them, so the table only has to match
    the kernel and x's P.

    The ReLU runs in place on the biased output, after its finiteness check,
    and the backward masks g where the output is not positive: the op keeps
    one output buffer, as a conv2d and a separate ReLU would keep two.
    """
    x, weight = _coerce(x), _coerce(weight)
    if x.data.ndim != 2 or weight.data.ndim != 4:
        raise ValueError("conv2d expects x[C,P] and weight[C_out,C_in,kh,kw]")
    c_out, c_in, kh, kw = weight.data.shape
    if x.data.shape[0] != c_in:
        raise ValueError(f"input channels {x.data.shape[0]} != weight c_in {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel extents must be odd")
    if table.n_src != x.data.shape[1] or table.table.shape[0] != kh * kw:
        raise ValueError("neighbour table does not match the kernel and the pixel list")
    reads_adjoint = x.requires_grad or weight.requires_grad and c_in > c_out
    if reads_adjoint and table.adjoint is None:
        raise ValueError("conv2d's backward reads the neighbour table's adjoint, "
                         "but this table carries none")
    if bias is not None:
        bias = _coerce(bias)
        if bias.data.shape != (c_out,):
            raise ValueError("bias must have shape (C_out,)")

    wd = weight.data
    out, cols = _correlate(x.data, wd, table, keep=weight.requires_grad)
    if bias is not None:
        out += bias.data[:, None]  # out is freshly allocated
    if relu:  # checked first: the ReLU would turn a -inf into 0
        _check_finite(out, "conv2d")
        np.maximum(out, 0.0, out=out)
    n_out, n_in = out.shape[1], x.data.shape[1]  # a list's taps pad columns past these

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        nonlocal cols
        if relu:
            g = g * (out > 0)
        if weight.requires_grad and c_in <= c_out:
            _accum(weight, (g @ cols[:, :n_out].T).reshape(wd.shape))
        cols = None  # its last reader has run: the input gradient allocates without it
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=1))
        if not reads_adjoint:
            return
        gx, g_cols = _correlate(g, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), table.adjoint)
        if x.requires_grad:
            _accum(x, gx)
        if weight.requires_grad and c_in > c_out:  # the forward kept no taps of x
            gw = (g_cols[:, :n_in] @ x.data.T).reshape(c_out, kh, kw, c_in)
            _accum(weight, gw[:, ::-1, ::-1].transpose(0, 3, 1, 2))

    return _node(out, parents, backward, "conv2d", checked=relu)


# -- gradient checking ------------------------------------------------------

def grad_check(f, x):
    """Compare analytic gradients of scalar ``f`` against central differences.

    Returns the max over coordinates of
    |analytic - central_difference| / max(1, |central_difference|).
    """
    xt = Tensor(x.data.copy(), requires_grad=True)
    out = f(xt)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("f must return a scalar tensor")
    out.backward()
    analytic = np.zeros_like(xt.data) if xt.grad is None else xt.grad

    base = xt.data.copy()
    flat = base.ravel()
    max_rel = 0.0
    for i in range(flat.size):
        probe = base.copy()
        probe.ravel()[i] = flat[i] + GRAD_CHECK_STEP
        fp = f(Tensor(probe)).item()
        probe.ravel()[i] = flat[i] - GRAD_CHECK_STEP
        fm = f(Tensor(probe)).item()
        fd = (fp - fm) / (2.0 * GRAD_CHECK_STEP)
        rel = abs(analytic.ravel()[i] - fd) / max(1.0, abs(fd))
        max_rel = max(max_rel, rel)
    return max_rel
