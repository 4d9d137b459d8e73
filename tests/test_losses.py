import numpy as np
import pytest

from semiconv import tensor as T
from semiconv.tensor import Tensor
from semiconv.embedding import EmbeddingField, field_rows
from semiconv.losses import SegmentSet, pull_to_mean_loss, mask_bce
from semiconv.synth import InstanceLabeling, generate_scene


def test_segment_set_from_labels():
    segs = SegmentSet.from_labels(InstanceLabeling(np.array([[0, 1, 1], [2, 2, 0]])))
    assert len(segs) == 2
    assert np.array_equal(segs.pixels, [1, 2, 3, 4])
    assert np.array_equal(segs.ids, [0, 0, 1, 1])
    assert np.array_equal(segs.counts, [2, 2])


def test_segment_set_validation():
    with pytest.raises(ValueError):
        SegmentSet([[0, 1], []], [2, 3], 4)          # empty segment
    with pytest.raises(ValueError):
        SegmentSet([[0, 1], [1, 2]], [3], 4)         # overlap
    with pytest.raises(ValueError):
        SegmentSet([[0, 1]], [2], 4)                 # does not cover


def test_loss_two_point_hand_value():
    # one segment, 1-d embeddings {0, 2}: mean 1, distances 1 and 1, loss 1
    segs = SegmentSet([[0, 1]], [], 2)
    loss = pull_to_mean_loss(Tensor([[0.0], [2.0]]), segs)
    assert abs(loss.item() - 1.0) < 1e-6


def test_loss_constant_segments_near_zero():
    segs = SegmentSet.from_labels(InstanceLabeling(np.array([[1, 1, 2, 2]])))
    rows = np.array([[5.0, 1.0], [5.0, 1.0], [-3.0, 2.0], [-3.0, 2.0]])
    loss = pull_to_mean_loss(Tensor(rows), segs)
    assert 0.0 <= loss.item() < 1e-3


def test_loss_permutation_invariant():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((10, 4))
    segs = SegmentSet([list(range(10))], [], 10)
    base = pull_to_mean_loss(Tensor(rows), segs).item()
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(10)
        shuffled = pull_to_mean_loss(Tensor(rows[perm]), segs).item()
        assert abs(shuffled - base) < 1e-12


def test_loss_translation_invariant():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((12, 3))
    segs = SegmentSet([[0, 1, 2, 3], [4, 5, 6, 7, 8]], [9, 10, 11], 12)
    base = pull_to_mean_loss(Tensor(rows), segs).item()
    shifted = pull_to_mean_loss(Tensor(rows + np.array([100.0, -7.0, 0.25])),
                                segs).item()
    assert abs(shifted - base) < 1e-12


def test_loss_ignores_background_exactly():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((8, 2))
    segs = SegmentSet([[0, 1, 2], [3, 4]], [5, 6, 7], 8)
    base = pull_to_mean_loss(Tensor(rows), segs).item()
    rows2 = rows.copy()
    rows2[5:] += 1e6
    assert pull_to_mean_loss(Tensor(rows2), segs).item() == base


def test_loss_rejects_bad_inputs():
    segs = SegmentSet([[0, 1]], [], 2)
    with pytest.raises(ValueError, match="rows"):
        pull_to_mean_loss(Tensor([0.0, 1.0]), segs)
    with pytest.raises(ValueError, match="rows"):  # field values, not rows
        pull_to_mean_loss(Tensor(np.zeros((1, 1, 2))), segs)
    with pytest.raises(ValueError, match="no segments"):
        pull_to_mean_loss(Tensor([[0.0], [1.0]]), SegmentSet([], [0, 1], 2))


def test_loss_grad_check():
    segs = SegmentSet([[0, 1, 2], [3, 4]], [], 5)

    def f(rows):
        return pull_to_mean_loss(rows, segs)

    for seed in range(5):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((5, 3))  # generic position: deviations well off zero
        assert T.grad_check(f, Tensor(rows)) < 1e-4


def loop_pull_to_mean_loss(rows, segs):
    """Reference: one tape chain per segment, terms added in segment order."""
    total = None
    for idx in np.split(segs.pixels, np.cumsum(segs.counts)[:-1]):
        sel = T.index_select(rows, idx)
        center = T.mul(T.tsum(sel, axes=0), 1.0 / idx.size)
        term = T.mul(T.tsum(T.l2norm_rows(T.sub(sel, center))), 1.0 / idx.size)
        total = term if total is None else T.add(total, term)
    return total


def test_loss_matches_per_segment_loop():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 7, size=(9, 11))
        segs = SegmentSet.from_labels(InstanceLabeling(labels))
        rows = rng.standard_normal((labels.size, 4)) * 3.0
        got_rows = Tensor(rows, requires_grad=True)
        got = pull_to_mean_loss(got_rows, segs)
        want_rows = Tensor(rows, requires_grad=True)
        want = loop_pull_to_mean_loss(want_rows, segs)
        assert abs(got.item() - want.item()) <= 1e-12 * abs(want.item())
        got.backward()
        want.backward()
        scale = np.max(np.abs(want_rows.grad))
        assert np.max(np.abs(got_rows.grad - want_rows.grad)) <= 1e-12 * scale
        # a field, over the whole image or over a cone's list of the instance
        # pixels and some background, read through its map: bit for bit its
        # rows (field_rows) under segments over its listed rows
        listed = (labels > 0) | (rng.random(labels.shape) < 0.5)
        at = np.full(labels.shape, -1)
        at[listed] = np.arange(np.count_nonzero(listed))
        for values, field_at in ((rows.T.reshape(4, 9, 11), None),
                                 (rows[listed.ravel()].T, at)):
            field = EmbeddingField(Tensor(values, requires_grad=True), field_at)
            got = pull_to_mean_loss(field, segs)
            ref = EmbeddingField(Tensor(values, requires_grad=True), field_at)
            ref_loss = pull_to_mean_loss(field_rows(ref), SegmentSet.from_labels(
                InstanceLabeling(labels[field.at >= 0])))
            assert got.item() == ref_loss.item()
            got.backward()
            ref_loss.backward()
            assert np.array_equal(field.values.grad, ref.values.grad)


def test_loss_tape_size_independent_of_segment_count():
    sizes = []
    for n in (2, 4, 6):
        scene = generate_scene(n, n, dot_radius=2, spacing=8)
        values = np.random.default_rng(n).standard_normal((3, *scene.shape))
        # [N, D] rows, and a field read through its map
        for form in (Tensor(values.reshape(3, -1).T, requires_grad=True),
                     EmbeddingField(Tensor(values, requires_grad=True))):
            loss = pull_to_mean_loss(form, SegmentSet.from_labels(scene.gt))
            sizes.append(len(T._topo_order(loss)))
    assert len(set(sizes)) == 1 and sizes[0] < 24


def test_bce_perfect_prediction():
    gt = np.array([1.0, 0.0, 1.0, 1.0])
    loss = mask_bce(Tensor(gt.copy()), gt)
    assert loss.item() < 1e-6


def test_bce_half_everywhere():
    gt = np.array([1.0, 0.0, 1.0, 0.0])
    loss = mask_bce(Tensor(np.full(4, 0.5)), gt)
    assert abs(loss.item() - np.log(2.0)) < 1e-15


def test_bce_inverse_e_hand_value():
    gt = np.ones(6)
    loss = mask_bce(Tensor(np.full(6, np.exp(-1.0))), gt)
    assert abs(loss.item() - 1.0) < 1e-12


def test_bce_validation():
    with pytest.raises(ValueError):
        mask_bce(Tensor([0.5, 0.5]), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        mask_bce(Tensor([0.5, 0.5]), np.array([1.0, 0.3]))


def test_bce_grad_check():
    gt = np.array([1.0, 0.0, 0.0, 1.0, 1.0])

    def f(k):
        return mask_bce(T.sigmoid(k), gt)  # logits keep probes inside (0,1)

    for seed in range(5):
        rng = np.random.default_rng(10 + seed)
        logits = rng.uniform(-2.0, 2.0, size=5)
        assert T.grad_check(f, Tensor(logits)) < 1e-4
