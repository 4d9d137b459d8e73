import itertools
import tracemalloc

import numpy as np
import pytest

from semiconv import tensor as T
from semiconv.tensor import Tensor, NumericError
from semiconv.embedding import EmbeddingField, field_rows
from semiconv.losses import SegmentSet, pull_to_mean_loss
from semiconv.synth import InstanceLabeling
from whole_image import every_pixel_table, image_conv, roll_conv


def conv2d_bruteforce(x, w):
    """Independent direct-summation oracle: circular, size-preserving, stride 1."""
    c_out, c_in, kh, kw = w.shape
    h, wd = x.shape[1:]
    out = np.zeros((c_out, h, wd))
    for o in range(c_out):
        for y in range(h):
            for xx in range(wd):
                acc = 0.0
                for c in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            acc += x[c, (y + i - kh // 2) % h, (xx + j - kw // 2) % wd] * w[o, c, i, j]
                out[o, y, xx] = acc
    return out


# -- elementwise ----------------------------------------------------------

def test_add():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_relu():
    # conv2d's ReLU behind a 1x1 identity kernel
    out = image_conv(Tensor([[[-1.0, 0.0, 2.0]]]), Tensor(np.ones((1, 1, 1, 1))), relu=True)
    assert np.array_equal(out.data, [[[0.0, 0.0, 2.0]]])


def test_exp_grad_at_zero():
    a = Tensor(np.zeros(()), requires_grad=True)
    T.exp(a).backward()
    assert a.grad == 1.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_scalar_broadcasting():
    out = T.mul(Tensor([1.0, 2.0]), 3.0)
    assert np.array_equal(out.data, [3.0, 6.0])
    a = Tensor([1.0, 2.0], requires_grad=True)
    s = Tensor(2.0, requires_grad=True)
    T.tsum(T.mul(a, s)).backward()
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert s.grad == 3.0


def test_broadcast_to_backward_sums():
    # broadcasting [2, 1] to [2, 3] in add: the gradient sums back over the row
    a = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
    out = T.add(a, np.zeros((2, 3)))
    assert out.data.shape == (2, 3)
    T.tsum(out).backward()
    assert np.array_equal(a.grad, [[3.0], [3.0]])
    # every stretched axis, leading ones too, on both sides of an op
    col = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)    # [2, 1]
    row = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)  # [3]
    one = Tensor(np.array([[2.0]]), requires_grad=True)            # [1, 1]
    out = T.mul(T.sub(col, row), one)
    assert np.array_equal(out.data, 2.0 * (col.data - row.data))
    T.tsum(out).backward()
    assert np.array_equal(col.grad, [[6.0], [6.0]])
    assert np.array_equal(row.grad, [-4.0, -4.0, -4.0])
    assert one.grad.shape == (1, 1) and one.grad[0, 0] == np.sum(col.data - row.data)


def test_log_sqrt_domain_errors():
    with pytest.raises(ValueError):
        T.log(Tensor([1.0, -1.0]))
    with pytest.raises(ValueError):
        T.log(Tensor([0.0]))
    with pytest.raises(ValueError):
        T.sqrt(Tensor([-4.0]))


def test_nonfinite_is_an_error():
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(NumericError):
            T.exp(Tensor([1000.0]))
        with pytest.raises(NumericError):
            T.div(Tensor([1.0]), Tensor([0.0]))


@pytest.mark.parametrize("call,message", [
    (lambda: T.take_columns(Tensor(np.zeros((2, 3))), [[0, 1]]), "column indices must be 1-d"),
    (lambda: T.take_columns(Tensor(np.zeros((2, 3))), [0, -1]),
     "column indices must lie in [0, 3)"),
    (lambda: T.take_columns(Tensor(np.zeros((2, 2, 2))), [4]),
     "column indices must lie in [0, 4)"),
    (lambda: T.index_select(Tensor(np.zeros((3, 2))), [[0, 1]]), "indices must be 1-d"),
    (lambda: T.l2norm_rows(Tensor(np.zeros(3))), "l2norm_rows expects an [N, D] tensor"),
    (lambda: T.conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
                      table=every_pixel_table((4, 4), 3, 3)),
     "conv2d expects x[C,P] and weight[C_out,C_in,kh,kw]"),
], ids=["take_columns", "take_columns-negative", "take_columns-past-the-end",
        "index_select", "l2norm_rows", "conv2d"])
def test_an_input_of_the_wrong_rank_is_a_one_line_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


MOVES = {"reshape": lambda a: T.reshape(a, (-1,)),
         "take_columns": lambda a: T.take_columns(a, [1, 0]),
         "index_select": lambda a: T.index_select(a, [1, 0])}


@pytest.mark.parametrize("op", sorted(MOVES))
def test_a_move_checks_the_values_it_moves(monkeypatch, op):
    nan_leaf = Tensor([[1.0, np.nan], [2.0, 3.0]])
    with pytest.raises(NumericError, match=f"op '{op}'"):
        MOVES[op](nan_leaf)
    # a move checks its output like any op, also when it moves an op's output
    made = T.mul(Tensor(np.ones((2, 2))), 2.0)
    scanned = []
    monkeypatch.setattr(T, "_check_finite", lambda arr, name: scanned.append(name))
    MOVES[op](made)
    assert scanned == [op]


# -- reductions -------------------------------------------------------------

def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0, rtol=0)


def test_l2norm_rows_345():
    out = T.l2norm_rows(Tensor([[3.0, 4.0]]))
    assert np.array_equal(out.data, [np.sqrt(25.0 + T.NORM_EPS)])


def test_tsum_mean_and_empty_axis():
    # a mean is a sum times 1/n, as mask_bce takes it
    a = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.tsum(a).item() == 15.0
    assert np.array_equal(T.mul(T.tsum(a, axes=0), 0.5).data, [1.5, 2.5, 3.5])
    with pytest.raises(ValueError):
        T.tsum(Tensor(np.zeros((0, 2))), axes=0)


# -- conv2d -----------------------------------------------------------------

def test_conv2d_identity_1x1():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 5, 7))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = image_conv(Tensor(x), Tensor(w))
    assert np.array_equal(out.data, x)


def test_conv2d_ones_center():
    x = np.ones((1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    out = image_conv(Tensor(x), Tensor(w))
    expected = conv2d_bruteforce(x, w)
    assert out.data[0, 1, 1] == 9.0
    assert np.allclose(out.data, expected, atol=1e-12, rtol=0)


# (C_in, C_out) pairs that take each product's branch: the forward and the
# weight gradient fold when C_in > C_out, the input gradient when C_out > C_in
BRANCHES = [(2, 3), (3, 2), (2, 2)]
KERNELS = [(3, 3), (3, 5), (1, 3)]
BRANCH_KERNELS = [pytest.param(ci, co, kh, kw, id=f"{kh}x{kw}-{ci}to{co}")
                  for ci, co in BRANCHES for kh, kw in KERNELS]


# the 2to3 cases keep their bare kernel ids
@pytest.mark.parametrize("c_in,c_out,kh,kw", [
    pytest.param(2, 3, kh, kw, id=f"{kh}x{kw}") for kh, kw in KERNELS + [(5, 5)]
] + [p for p in BRANCH_KERNELS if p.values[:2] != (2, 3)])
def test_conv2d_matches_bruteforce(c_in, c_out, kh, kw):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((c_in, 7, 9))
    w = rng.standard_normal((c_out, c_in, kh, kw))
    b = rng.standard_normal(c_out)
    out = image_conv(Tensor(x), Tensor(w), Tensor(b))
    expected = conv2d_bruteforce(x, w) + b[:, None, None]
    assert out.data.shape == (c_out, 7, 9)
    assert np.allclose(out.data, expected, atol=1e-12, rtol=0)


def squared_conv_grad_errors(x0, w0):
    """grad_check errors of sum(conv2d(x, w)^2) in the weight and in the input."""
    def f_w(w):
        y = image_conv(Tensor(x0), w)
        return T.tsum(T.mul(y, y))

    def f_x(x):
        y = image_conv(x, Tensor(w0))
        return T.tsum(T.mul(y, y))

    return T.grad_check(f_w, Tensor(w0)), T.grad_check(f_x, Tensor(x0))


@pytest.mark.parametrize("c_in,c_out,kh,kw", BRANCH_KERNELS)
def test_conv2d_grads_on_both_branches(c_in, c_out, kh, kw):
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((c_in, 5, 7))
    w0 = rng.standard_normal((c_out, c_in, kh, kw)) * 0.5
    err_w, err_x = squared_conv_grad_errors(x0, w0)
    assert err_w < 1e-6 and err_x < 1e-6


@pytest.mark.parametrize("c_in,c_out", [(2, 3), (3, 2)], ids=["2to3", "3to2"])
def test_conv2d_half_extent_equal_to_input(c_in, c_out):
    # a 5x5 kernel on a 2x2 input: each tap wraps round the whole input, so
    # the taps of a pixel repeat pixels
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((c_in, 2, 2))
    w0 = rng.standard_normal((c_out, c_in, 5, 5)) * 0.5
    out = image_conv(Tensor(x0), Tensor(w0))
    assert np.allclose(out.data, conv2d_bruteforce(x0, w0), atol=1e-12, rtol=0)
    err_w, err_x = squared_conv_grad_errors(x0, w0)
    assert err_w < 1e-6 and err_x < 1e-6


@pytest.mark.parametrize("c_in,c_out,kh,kw", BRANCH_KERNELS)
def test_conv2d_over_a_pixel_list_is_the_image_conv_there(c_in, c_out, kh, kw):
    # a scattered output list of a 5x7 image and the taps it reads, which
    # wrap around the edges; the adjoint table reads -1 at taps off the list
    rng = np.random.default_rng(23)
    shape = (5, 7)
    dst = np.flatnonzero(rng.random(35) < 0.3)
    taps = T.tap_pixels(shape, dst, kh, kw)
    src = np.unique(taps)
    table = T.neighbour_table(taps, src, 35)
    assert (table.adjoint.table < 0).any()
    x0 = rng.standard_normal((c_in, *shape))
    w0 = rng.standard_normal((c_out, c_in, kh, kw)) * 0.5
    b = Tensor(rng.standard_normal(c_out))
    listed = x0.reshape(c_in, -1)[:, src]
    got = T.conv2d(Tensor(listed), Tensor(w0), b, table=table).data
    want = image_conv(Tensor(x0), Tensor(w0), b).data.reshape(c_out, -1)[:, dst]
    assert np.array_equal(got, want)
    assert np.allclose(want, roll_conv(x0, w0, b.data).reshape(c_out, -1)[:, dst],
                       atol=1e-12, rtol=0)

    def squared(x, w):
        y = T.conv2d(x, w, table=table)
        return T.tsum(T.mul(y, y))

    assert T.grad_check(lambda w: squared(Tensor(listed), w), Tensor(w0)) < 1e-6
    assert T.grad_check(lambda x: squared(x, Tensor(w0)), Tensor(listed)) < 1e-6
    with pytest.raises(ValueError, match="neighbour table"):
        T.conv2d(Tensor(listed[:, 1:]), Tensor(w0), table=table)


def test_a_neighbour_table_is_checked_where_it_is_made():
    # conv2d reads a table as made; only the table's maker checks its entries
    taps = T.tap_pixels((4, 5), [0, 7], 3, 3)
    with pytest.raises(ValueError, match="source list lacks a tap"):
        T.neighbour_table(taps, np.unique(taps)[1:], 20)
    made = T.neighbour_table(taps, np.unique(taps), 20)
    assert made.table.shape == (9, 2) and made.adjoint.table.shape == (9, made.n_src)
    assert made.adjoint.n_src == 2 and made.adjoint.adjoint is None
    table = T.Neighbours(np.array([[4, -1, 0]]), 5)
    assert table.gather.tolist() == [[4, -1, 0, -1, -1, -1, -1, -1]]
    assert table.table.base is table.gather and table.n_src == 5
    with pytest.raises(ValueError, match="read-only"):
        table.table[0, 0] = 1


@pytest.mark.parametrize("shape", [(5, 5), (1, 16), (2, 16)], ids=["5x5", "1x16", "2x16"])
def test_the_table_of_every_pixel_is_its_own_adjoint(shape):
    # each tap permutes the image and the opposite tap undoes it, so the
    # adjoint the table carries holds its entries, with no -1. On one and
    # two rows the rows of a 3x3 kernel wrap onto the image's own, so the
    # taps of a pixel repeat pixels
    n = shape[0] * shape[1]
    table = every_pixel_table(shape, 3, 3)
    assert not table.holes and not table.adjoint.holes
    assert np.array_equal(table.adjoint.table, table.table) and table.adjoint.n_src == n
    assert np.unique(T.tap_pixels(shape, [0], 3, 3)).size == min(shape[0], 3) * 3
    rng = np.random.default_rng(43)
    for c_in, c_out in BRANCHES:
        w0 = Tensor(rng.standard_normal((c_out, c_in, 3, 3)) * 0.5)

        def squared(x):
            y = T.conv2d(x, w0, table=table)
            return T.tsum(T.mul(y, y))

        assert T.grad_check(squared, Tensor(rng.standard_normal((c_in, n)))) < 1e-6


def test_a_table_without_its_adjoint_serves_every_op_that_reads_none():
    rng = np.random.default_rng(29)
    taps = T.tap_pixels((5, 7), [3, 17, 30], 3, 3)
    src = np.unique(taps)
    full, bare = (T.neighbour_table(taps, src, 35, adjoint=a) for a in (True, False))
    assert bare.adjoint is None and np.array_equal(bare.gather, full.gather)
    x = rng.standard_normal((2, src.size))
    widen, narrow = rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((1, 2, 3, 3))
    # the weight gradient of a widening layer is g times the kept taps of x,
    # and a forward alone reads no backward table
    for w, grad in ((widen, True), (narrow, False)):
        want, got = (Tensor(w, requires_grad=grad) for _ in range(2))
        out = [T.conv2d(Tensor(x), wt, table=t) for wt, t in ((want, full), (got, bare))]
        assert np.array_equal(out[0].data, out[1].data)
        if grad:
            for y in out:
                T.tsum(T.mul(y, y)).backward()
            assert np.array_equal(got.grad, want.grad)
    # an input gradient, or a narrowing layer's weight gradient (the taps of g
    # over the adjoint times x), is refused when the op is made
    for x_grad, w in ((True, widen), (True, narrow), (False, narrow)):
        with pytest.raises(ValueError) as err:
            T.conv2d(Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=not x_grad),
                     table=bare)
        assert str(err.value) == ("conv2d's backward reads the neighbour table's adjoint, "
                                  "but this table carries none")


@pytest.mark.parametrize("kh,kw,h,w", [(3, 3, 6, 7), (3, 5, 4, 6), (1, 3, 5, 2), (5, 5, 2, 2)])
def test_fold_is_the_adjoint_of_taps(kh, kw, h, w):
    # _fold over a table adds one kernel row's blocks of z[(c, i, j), M] at a
    # time, in rows (j, c): the adjoint of the taps over the table's adjoint.
    # Over every pixel the table is its own adjoint; over a pixel list it is
    # checked both ways, and an entry -1 of the adjoint reads a zero column
    rng = np.random.default_rng(17)
    dst = np.union1d(np.flatnonzero(rng.random(h * w) < 0.4), [0])
    taps = T.tap_pixels((h, w), dst, kh, kw)
    listed = T.neighbour_table(taps, np.unique(taps), h * w)
    every = every_pixel_table((h, w), kh, kw)
    for table, adjoint in ((every, every), (listed, listed.adjoint), (listed.adjoint, listed)):
        n_out, n_src = table.table.shape[1], table.n_src
        a = rng.standard_normal((3, n_out))
        z = T._padded(rng.standard_normal((3 * kh * kw, n_src)))
        folded = np.zeros((3, n_out))
        for i in range(kh):
            row = z.reshape(3, kh, kw, -1)[:, i].transpose(1, 0, 2)
            T._fold(folded, row.reshape(kw * 3, -1), i, kh, kw, table)
        taps_a = taps_of(a, adjoint)[:, :n_src]
        assert abs(np.vdot(folded, a) - np.vdot(z[:, :n_src], taps_a)) < 1e-12


def fold_one_product(a, k, table):
    """Reference: _correlate's fold branch as one product of the whole
    tap-flipped kernel, rows (o, i, j), with zero columns up to a multiple of
    8 (_padded), folded over the table block by block."""
    c_o, c_a, kh, kw = k.shape
    k_flip = k[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(-1, c_a)
    t = kh * kw
    z = (k_flip @ T._padded(a)).reshape(c_o, t, -1)
    out = np.zeros((c_o, table.table.shape[1]))
    for b in range(t):
        out += np.take(z[:, b], table.table[t - 1 - b], axis=1)
    return out


@pytest.mark.parametrize("c_a,c_o", [pytest.param(ca, co, id=f"{ca}to{co}")
                                     for ca, co in [(3, 2), (32, 8), (32, 16)]])
@pytest.mark.parametrize("kh,kw", [pytest.param(kh, kw, id=f"{kh}x{kw}")
                                   for kh, kw in KERNELS + [(5, 5)]])
def test_fold_by_kernel_rows_is_the_one_product_fold(c_a, c_o, kh, kw):
    # bit for bit, over every pixel of an image (read in place when its pixel
    # count is a multiple of 8, as at 8x16) and over a neighbour table and its
    # adjoint. The equality rests on the BLAS giving a row block of a
    # product the bits of those rows of the whole product
    rng = np.random.default_rng(37)
    k = rng.standard_normal((c_o, c_a, kh, kw))
    for h, w in [(7, 9), (12, 13), (8, 16), (33, 35)]:
        dst = np.flatnonzero(rng.random(h * w) < 0.3)
        taps = T.tap_pixels((h, w), dst, kh, kw)
        src = np.unique(taps)
        table = T.neighbour_table(taps, src, h * w)
        for table, n_src in ((every_pixel_table((h, w), kh, kw), h * w), (table, src.size),
                             (table.adjoint, dst.size)):
            listed = rng.standard_normal((c_a, n_src))
            got, taps_kept = T._correlate(listed, k, table)
            assert taps_kept is None
            want = fold_one_product(listed, k, table)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv2d_buffers_stack_the_narrower_side():
    # one tap buffer of the 32-channel side at 64x64 is 9 * 32 * 64 * 64 * 8 bytes;
    # the 8-channel output (forward) and the 16-channel x.grad (backward) are
    # allocated inside the traced call, so a peak below them means numpy's
    # buffers went untraced
    wide = 9 * 32 * 64 * 64 * 8
    rng = np.random.default_rng(19)
    table = every_pixel_table((64, 64), 3, 3)
    x = Tensor(rng.standard_normal((32, 64 * 64)))
    w = Tensor(rng.standard_normal((8, 32, 3, 3)))
    assert 8 * 64 * 64 * 8 < traced_peak_bytes(lambda: T.conv2d(x, w, table=table)) < wide

    x = Tensor(rng.standard_normal((16, 64 * 64)), requires_grad=True)
    w = Tensor(rng.standard_normal((32, 16, 3, 3)), requires_grad=True)
    loss = T.tsum(T.mul(T.conv2d(x, w, table=table), rng.standard_normal((32, 64 * 64))))
    assert 16 * 64 * 64 * 8 < traced_peak_bytes(loss.backward) < wide


def test_conv2d_weight_grad_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 5))
    w0 = rng.standard_normal((3, 2, 3, 3)) * 0.5

    def f(w):
        return T.tsum(image_conv(Tensor(x), w))

    assert T.grad_check(f, Tensor(w0)) < 1e-6


def test_conv2d_input_grad_finite_differences():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((2, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3)) * 0.5

    def f(x):
        return T.tsum(T.mul(image_conv(x, Tensor(w)), image_conv(x, Tensor(w))))

    assert T.grad_check(f, Tensor(x0)) < 1e-6


def test_conv2d_input_grad_nonsquare_kernel():
    # a flip along the wrong axis or an unswapped channel pair shows up here
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((2, 5, 7))
    w = rng.standard_normal((3, 2, 3, 5)) * 0.5

    def f(x):
        y = image_conv(x, Tensor(w))
        return T.tsum(T.mul(y, y))

    assert T.grad_check(f, Tensor(x0)) < 1e-6


def test_conv2d_validation():
    table = every_pixel_table((4, 4), 3, 3)
    x, w = Tensor(np.zeros((2, 16))), Tensor(np.zeros((1, 2, 3, 3)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((1, 3, 3, 3))), table=table)  # channel mismatch
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((1, 2, 2, 2))), table=table)  # even kernel
    with pytest.raises(ValueError):
        T.conv2d(x, w, Tensor(np.zeros(2)), table=table)  # bias is not (C_out,)
    with pytest.raises(TypeError, match="table"):
        T.conv2d(x, w)  # every conv runs over a neighbour table
    assert T.conv2d(x, w, table=table).data.shape == (1, 16)
    # a tap wraps round the image as often as it must: a 7x7 kernel's
    # half-extent, 3, is wider than the 2x2 image
    rng = np.random.default_rng(2)
    x0, w0 = rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 1, 7, 7))
    assert np.allclose(image_conv(Tensor(x0), Tensor(w0)).data, conv2d_bruteforce(x0, w0),
                       atol=1e-12, rtol=0)


def test_conv2d_circular_shift_equivariance():
    # bit for bit: each pixel adds its taps in one order on every branch. BLAS
    # sums a product's last N mod 8 columns in another order, so the sizes
    # whose pixel count is not a multiple of 8 check the column padding
    rng = np.random.default_rng(11)
    # the fold in the backward, then in the forward; then the backbone's layers
    pairs = [(2, 3), (3, 2), (1, 16), (16, 32), (32, 8)]
    for (c_in, c_out), (h, w) in itertools.product(pairs, [(8, 9), (31, 31), (33, 35)]):
        x = rng.standard_normal((c_in, h, w))
        wt = rng.standard_normal((c_out, c_in, 3, 3))
        g = rng.standard_normal((c_out, h, w))

        def forward_and_input_grad(x, g):
            xt = Tensor(x, requires_grad=True)
            out = image_conv(xt, Tensor(wt))
            T.tsum(T.mul(out, g)).backward()
            return out.data, xt.grad

        out, gx = forward_and_input_grad(x, g)
        for shift in [(1, 0), (0, 3), (5, 2), (7, 8)]:
            outs, gxs = forward_and_input_grad(np.roll(x, shift, axis=(1, 2)),
                                               np.roll(g, shift, axis=(1, 2)))
            assert np.array_equal(outs, np.roll(out, shift, axis=(1, 2)))
            assert np.array_equal(gxs, np.roll(gx, shift, axis=(1, 2)))


@pytest.mark.parametrize("c_in,c_out", [
    pytest.param(ci, co, id=f"{ci}to{co}") for ci, co in BRANCHES + [(1, 16), (16, 32), (32, 8)]])
def test_conv2d_input_grad_is_the_flipped_kernel_correlation(c_in, c_out):
    # the input gradient of a correlation with W is the correlation with the
    # tap-flipped, channel-swapped W, computed by the same code, bit for bit:
    # the backward's one product of kept taps, the forward's bands of taps
    rng = np.random.default_rng(29)
    for h, w in [(33, 35), (128, 128)]:
        x = Tensor(rng.standard_normal((c_in, h, w)), requires_grad=True)
        wt = rng.standard_normal((c_out, c_in, 3, 3))
        g = rng.standard_normal((c_out, h, w))
        T.tsum(T.mul(image_conv(x, Tensor(wt)), g)).backward()
        adjoint = image_conv(Tensor(g), Tensor(wt[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))
        assert np.array_equal(x.grad, adjoint.data)


@pytest.mark.parametrize("listed", [False, True], ids=["image", "list"])
@pytest.mark.parametrize("c_in,c_out", [(2, 3), (3, 2)], ids=["2to3", "3to2"])
def test_conv2d_relu_is_the_relu_of_the_conv(c_in, c_out, listed):
    # the fused ReLU gives np.maximum(conv2d(...), 0) bit for bit, and its
    # backward the plain conv2d's gradients with g masked by hand
    rng = np.random.default_rng(41)
    x0 = rng.standard_normal((c_in, 42))
    table = every_pixel_table((6, 7), 3, 3)
    if listed:
        taps = T.tap_pixels((6, 7), np.flatnonzero(rng.random(42) < 0.4), 3, 3)
        src = np.unique(taps)
        table = T.neighbour_table(taps, src, 42)
        x0 = x0[:, src]
    w0 = rng.standard_normal((c_out, c_in, 3, 3))
    b0 = rng.standard_normal(c_out)
    plain = T.conv2d(Tensor(x0), Tensor(w0), Tensor(b0), table=table).data
    assert (plain < 0).any() and (plain > 0).any()
    g = rng.standard_normal(plain.shape)

    def forward_and_grads(relu, upstream):
        leaves = [Tensor(a, requires_grad=True) for a in (x0, w0, b0)]
        out = T.conv2d(*leaves, table=table, relu=relu)
        T.tsum(T.mul(out, upstream)).backward()
        return out.data, [t.grad for t in leaves]

    fused, fused_grads = forward_and_grads(True, g)
    assert np.array_equal(fused, np.maximum(plain, 0.0))
    _, masked_grads = forward_and_grads(False, g * (plain > 0))
    for got, want in zip(fused_grads, masked_grads, strict=True):
        assert np.array_equal(got, want)


def test_conv2d_relu_checks_finiteness_once_before_the_relu(monkeypatch):
    x, w = Tensor(np.ones((1, 9))), Tensor(np.ones((2, 1, 3, 3)))
    table = every_pixel_table((3, 3), 3, 3)
    # a -inf pre-activation, which the ReLU would turn into 0
    with pytest.raises(NumericError, match="op 'conv2d'"):
        T.conv2d(x, w, Tensor([0.0, -np.inf]), table=table, relu=True)
    scanned, check = [], T._check_finite
    monkeypatch.setattr(T, "_check_finite", lambda arr, op: scanned.append(op) or check(arr, op))
    for relu in (False, True):
        T.conv2d(x, w, Tensor([0.0, -20.0]), table=table, relu=relu)
    assert scanned == ["conv2d", "conv2d"]


def conv_relu_loss(seed):
    """A two-layer conv/relu stack under the pull-to-mean loss, plus its leaves."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 6, 8)), requires_grad=True)
    leaves = [x]
    for c_in, c_out in [(2, 4), (4, 3)]:
        leaves += [Tensor(rng.standard_normal((c_out, c_in, 3, 3)), requires_grad=True),
                   Tensor(rng.standard_normal(c_out), requires_grad=True)]
    h = image_conv(x, leaves[1], leaves[2], relu=True)
    field = EmbeddingField(image_conv(h, leaves[3], leaves[4]))
    segs = SegmentSet.from_labels(InstanceLabeling(rng.integers(0, 4, size=(6, 8))))
    return pull_to_mean_loss(field_rows(field), segs), leaves


def test_backward_spends_the_tape_and_keeps_leaf_grads():
    loss, leaves = conv_relu_loss(31)
    interior = [n for n in T._topo_order(loss) if n._backward is not None]
    assert len(interior) > 10
    loss.backward()
    for node in interior:
        assert node.grad is None and node._backward is None and node._parents == ()

    # the same graph walked without freeing anything gives the same leaf grads
    ref, ref_leaves = conv_relu_loss(31)
    ref.grad = np.ones_like(ref.data)
    for node in reversed(T._topo_order(ref)):
        if node._backward is not None:
            node._backward(node.grad)
    for got, want in zip(leaves, ref_leaves):
        assert np.array_equal(got.grad, want.grad)


def taps_of(a, table):
    """The taps of a[C, P] over the Neighbours table, every output column at
    once, then columns that no output reads."""
    return T._taps(T._padded(a), table.gather)


def taps_loop(a, kh, kw):
    """Reference: one strided copy of the wrap-padded input per tap."""
    c, h, w = a.shape
    ap = np.pad(a, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)), mode="wrap")
    cols = np.empty((c, kh, kw, h, w))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = ap[:, i:i + h, j:j + w]
    return cols.reshape(c * kh * kw, h * w)


@pytest.mark.parametrize("kh,kw,h,w", [(kh, kw, 6, 7) for kh, kw in KERNELS] + [(5, 5, 2, 2)])
def test_taps_match_loop_reference(kh, kw, h, w):
    # over every pixel, over a pixel list, and over the list's adjoint, whose
    # entries -1 read zeros; the columns past the outputs pad to a multiple of 8
    rng = np.random.default_rng(23)
    a = rng.standard_normal((3, h, w))
    want = taps_loop(a, kh, kw)
    got = taps_of(a.reshape(3, -1), every_pixel_table((h, w), kh, kw))
    assert got.shape[1] % 8 == 0 and np.array_equal(got[:, :h * w], want)
    dst = np.array([0, h * w - 1])
    taps = T.tap_pixels((h, w), dst, kh, kw)
    src = np.unique(taps)
    table = T.neighbour_table(taps, src, h * w)
    assert np.array_equal(taps_of(a.reshape(3, -1)[:, src], table)[:, :2], want[:, dst])
    # the adjoint's taps are the image's taps, at the listed pixels, of a
    # that is zero off dst
    back = np.zeros_like(a).reshape(3, -1)
    back[:, dst] = a.reshape(3, -1)[:, dst]
    want = taps_loop(back.reshape(a.shape), kh, kw)[:, src]
    assert np.array_equal(taps_of(back[:, dst], table.adjoint)[:, :src.size], want)


# -- shape ops ----------------------------------------------------------------

def test_index_select_accumulates_duplicates():
    a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.index_select(a, [0, 2, 0])
    assert np.array_equal(out.data, [[0.0, 1.0], [4.0, 5.0], [0.0, 1.0]])
    T.tsum(T.mul(out, Tensor([[1.0], [10.0], [100.0]]))).backward()
    assert np.array_equal(a.grad, [[101.0, 101.0], [0.0, 0.0], [10.0, 10.0]])


@pytest.mark.parametrize("shape", [(3, 5), (3, 1, 5)], ids=["list", "image"])
def test_take_columns_hands_on_the_transposed_scatter(shape):
    # contiguous rows forward; backward the [P, C] scatter-add of the rows,
    # handed on transposed, so a [C, P] gradient stays in Fortran order
    a = Tensor(np.arange(15.0).reshape(shape), requires_grad=True)
    out = T.take_columns(a, [4, 0, 4])
    assert out.data.flags.c_contiguous
    assert np.array_equal(out.data, [[4.0, 9.0, 14.0], [0.0, 5.0, 10.0], [4.0, 9.0, 14.0]])
    T.tsum(T.mul(out, Tensor(np.arange(9.0).reshape(3, 3)))).backward()
    want = [[3.0, 0, 0, 0, 6.0], [4.0, 0, 0, 0, 8.0], [5.0, 0, 0, 0, 10.0]]
    assert np.array_equal(a.grad.reshape(3, 5), want) and a.grad.shape == shape
    assert a.grad.reshape(3, 5).flags.f_contiguous


@pytest.mark.parametrize("shape", [(40,), (40, 8), (40, 2, 3), (0, 8)])
def test_scatter_adds_in_index_order_as_add_at(shape):
    rng = np.random.default_rng(len(shape))
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    rows.reshape(-1)[::7] = -0.0
    ids = rng.integers(0, 13, size=shape[0])
    want = np.zeros((13,) + shape[1:])
    np.add.at(want, ids, rows)
    got = T._scatter(rows, ids, 13)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_index_select_rejects_negative_indices():
    with pytest.raises(ValueError, match="non-negative"):
        T.index_select(Tensor(np.zeros((3, 2))), [0, -1])


def test_clamp_gradient_mask():
    a = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    T.tsum(T.clamp(a, 0.0, 1.0)).backward()
    assert np.array_equal(a.grad, [0.0, 1.0, 0.0])


def test_segment_sum_matches_loop():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((9, 3))
    ids = np.array([3, 0, 3, 1, 0, 3, 1, 1, 0])  # unordered, repeated; segment 2 empty
    out = T.segment_sum(Tensor(rows), ids, 4)
    expected = np.zeros((4, 3))
    for n, k in enumerate(ids):
        expected[k] += rows[n]
    assert np.array_equal(out.data, expected)
    assert np.array_equal(out.data[2], np.zeros(3))


def test_segment_sum_backward_gathers():
    a = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    out = T.segment_sum(a, [1, 0, 1, 1], 3)
    T.tsum(T.mul(out, Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))).backward()
    assert np.array_equal(a.grad, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]])


def test_segment_sum_validation():
    with pytest.raises(ValueError):
        T.segment_sum(Tensor(np.zeros((3, 2))), [0, 1], 2)     # one id per row
    with pytest.raises(ValueError):
        T.segment_sum(Tensor(np.zeros((2, 2))), [0, 2], 2)     # id out of range
    with pytest.raises(ValueError):
        T.segment_sum(Tensor(np.zeros((2, 2))), [-1, 0], 2)


# -- grad_check harness -------------------------------------------------------

def test_grad_check_quadratic():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = T.tsum(T.mul(x, x))
    out.backward()
    assert np.allclose(x.grad, [2.0, 4.0], atol=0, rtol=0)
    assert T.grad_check(lambda t: T.tsum(T.mul(t, t)), Tensor([1.0, 2.0])) < 1e-7


def test_grad_check_relu_strictly_positive():
    # conv2d's ReLU behind a 1x1 identity kernel
    def f(t):
        return T.tsum(T.conv2d(T.reshape(t, (1, 3)), Tensor(np.ones((1, 1, 1, 1))),
                               table=every_pixel_table((1, 3), 1, 1), relu=True))

    assert T.grad_check(f, Tensor([0.5, 1.5, 2.0])) < 1e-7


def test_grad_check_constant_function():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    f = T.mul(Tensor(np.array(3.0), requires_grad=True), 1.0)
    # f never touches x: gradient must be exactly zero
    assert T.grad_check(lambda t: T.mul(Tensor(np.array(3.0)), 1.0), Tensor([1.0, 2.0])) == 0.0
    del x, f


def test_grad_check_rejects_bad_inputs():
    with pytest.raises(ValueError):
        T.grad_check(lambda t: t, Tensor([1.0, 2.0]))  # non-scalar output


OPS_FOR_GRADCHECK = [
    ("add", lambda t: T.tsum(T.add(t, Tensor(np.full(t.data.shape, 0.7))))),
    ("sub", lambda t: T.tsum(T.sub(Tensor(np.full(t.data.shape, 0.7)), t))),
    ("mul", lambda t: T.tsum(T.mul(t, t))),
    ("div", lambda t: T.tsum(T.div(1.0, T.add(T.mul(t, t), 2.0)))),
    ("exp", lambda t: T.tsum(T.exp(t))),
    ("log", lambda t: T.tsum(T.log(T.add(T.mul(t, t), 1.0)))),
    ("sqrt", lambda t: T.tsum(T.sqrt(T.add(T.mul(t, t), 1.0)))),
    ("sigmoid", lambda t: T.tsum(T.sigmoid(t))),
    ("softmax", lambda t: T.tsum(T.mul(T.softmax(t), Tensor(np.arange(8.0))))),
    ("l2norm", lambda t: T.tsum(T.l2norm_rows(T.reshape(t, (2, -1))))),
    ("mean", lambda t: T.mul(T.tsum(T.mul(t, t)), 1.0 / 8)),
    ("broadcast_mul_sub", lambda t: T.tsum(T.mul(T.reshape(t, (8, 1)),
                                                 T.sub(T.reshape(t, (1, 8)), 0.3)))),
    ("broadcast_div", lambda t: T.tsum(T.div(T.reshape(t, (2, 1, 4)),
                                             T.add(T.mul(T.reshape(t, (8, 1)), T.reshape(t, (8, 1))), 3.0)))),
    # columns of a [D, P] and a [D, H, W] input, repeated ones accumulating
    ("take_columns", lambda t: T.tsum(T.mul(T.take_columns(T.reshape(t, (2, 4)), [3, 0, 3, 1, 3]),
                                            Tensor(np.arange(10.0).reshape(5, 2))))),
    ("take_columns_image", lambda t: T.tsum(T.sqrt(T.add(T.mul(*2 * [
        T.take_columns(T.reshape(t, (2, 2, 2)), [2, 2, 0, 3, 0])]), 9.0)))),
    ("segment_sum", lambda t: T.tsum(T.sqrt(T.add(T.mul(
        T.segment_sum(T.reshape(t, (4, 2)), [2, 0, 2, 1], 4),
        T.segment_sum(T.reshape(t, (4, 2)), [1, 1, 0, 3], 4)), 9.0)))),
]


@pytest.mark.parametrize("name,f", OPS_FOR_GRADCHECK, ids=[n for n, _ in OPS_FOR_GRADCHECK])
def test_grad_check_all_ops(name, f):
    # randomized inputs bounded away from non-smooth points
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(0.2, 1.5, size=8) * rng.choice([-1.0, 1.0], size=8)
        if name in ("log", "sqrt"):
            x = np.abs(x) + 0.5
        assert T.grad_check(f, Tensor(x)) < 1e-4


def test_forward_backward_bit_reproducible():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 6, 6)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        h = image_conv(x, w, relu=True)
        loss = T.tsum(T.mul(h, h))
        loss.backward()
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_item_requires_single_element():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()
