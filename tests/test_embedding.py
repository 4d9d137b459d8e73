import numpy as np
import pytest

from semiconv import tensor as T
from semiconv.tensor import Tensor
from semiconv import embedding as E
from semiconv.backbone import Backbone
from semiconv.synth import build_field, cone_field
from whole_image import image_conv


def test_coord_grid_layout():
    g = E.coord_grid(3, 4)
    assert g.shape == (2, 3, 4)
    for y in range(3):
        for x in range(4):
            assert g[0, y, x] == x
            assert g[1, y, x] == y
    with pytest.raises(ValueError):
        E.coord_grid(0, 4)


def test_attach_coords_zero_features():
    phi = Tensor(np.zeros((4, 8, 8)))
    psi = E.attach_coords(phi, E.coord_grid(8, 8))
    assert np.array_equal(psi.data[:, 5, 3], [3.0, 5.0, 0.0, 0.0])


def test_attach_coords_exact_cancellation():
    g = E.coord_grid(6, 7)
    assert np.all(E.attach_coords(Tensor(-g.copy()), g).data == 0.0)


def test_attach_coords_identity_jacobian():
    phi = Tensor(np.random.default_rng(0).standard_normal((3, 4, 4)),
                 requires_grad=True)
    T.tsum(E.attach_coords(phi, E.coord_grid(4, 4))).backward()
    assert np.all(phi.grad == 1.0)


def test_attach_coords_needs_two_channels():
    with pytest.raises(ValueError):
        E.attach_coords(Tensor(np.zeros((1, 4, 4))), E.coord_grid(4, 4))
    with pytest.raises(ValueError):  # a grid of other pixels
        E.attach_coords(Tensor(np.zeros((4, 4))), E.coord_grid(4, 4))
    # a pixel list's [D, P] features and the [2, P] grid of its pixels
    psi = E.attach_coords(Tensor(np.zeros((3, 2))), np.array([[4.0, 1.0], [0.0, 2.0]]))
    assert np.array_equal(psi.data, [[4.0, 1.0], [0.0, 2.0], [0.0, 0.0]])


def test_channel_split():
    # coordinates go to the two geometric channels, the rest pass through;
    # a conv field of any width is a plain [D,H,W] map
    phi = np.random.default_rng(4).standard_normal((5, 3, 3))
    psi = E.attach_coords(Tensor(phi), E.coord_grid(3, 3)).data
    assert np.array_equal(psi[2:], phi[2:])
    assert np.array_equal(psi[:2], phi[:2] + E.coord_grid(3, 3))
    assert E.EmbeddingField(Tensor(np.zeros((1, 3, 3)))).values.data.shape == (1, 3, 3)
    with pytest.raises(ValueError, match="do not hold one column per pixel of an image map"):
        E.EmbeddingField(Tensor(np.zeros((9, 2))))


def test_displacement_points_at_common_target():
    # every pixel embeds to the same point c: arrow at u must equal c - u
    h, w = 5, 6
    c = np.array([2.5, 1.5])
    vals = np.zeros((2, h, w))
    vals[0], vals[1] = c[0], c[1]
    field = E.EmbeddingField(Tensor(vals))
    everywhere = np.arange(h * w)
    disp = E.displacement_field(field, everywhere).data.reshape(2, h, w)
    g = E.coord_grid(h, w)
    assert np.array_equal(disp, np.stack([c[0] - g[0], c[1] - g[1]]))
    # a pixel sitting exactly at the target has a zero arrow
    assert np.array_equal(disp[:, 1, 2], [0.5, 0.5])
    vals2 = vals.copy()
    vals2[:, 1, 2] = g[:, 1, 2]
    disp2 = E.displacement_field(E.EmbeddingField(Tensor(vals2)), everywhere).data
    assert np.array_equal(disp2.reshape(2, h, w)[:, 1, 2], [0.0, 0.0])


def test_a_field_without_a_map_maps_the_image_to_itself():
    field = E.EmbeddingField(Tensor(np.zeros((2, 3, 4))))
    assert field.at.dtype == np.int32
    assert np.array_equal(field.at, np.arange(12).reshape(3, 4))


def test_a_field_holds_one_column_per_pixel_its_map_lists():
    # a cone's field: [D, P] values for the P pixels its map lists
    at = np.full((4, 5), -1, dtype=np.int32)
    at.reshape(-1)[[2, 7, 19]] = np.arange(3)
    assert E.EmbeddingField(Tensor(np.zeros((2, 3))), at).at is at
    for shape in [(2, 4), (2, 2), (3,)]:
        with pytest.raises(ValueError, match="do not hold one column per pixel of an image map"):
            E.EmbeddingField(Tensor(np.zeros(shape)), at)


def test_a_cone_fields_displacement_is_the_whole_image_fields():
    # each pixel's offset is measured from its own (x, y), read through the
    # field's map, so a cone's field and the whole image's agree bit for bit
    rng = np.random.default_rng(4)
    model = Backbone.glorot(1, 4, 2)
    image = Tensor(rng.random((1, 9, 11)))
    pixels = np.array([98, 0, 40, 13, 57, 40])  # unsorted, one repeat
    whole = E.displacement_field(build_field(model, image, "semiconv"), pixels).data
    cone = E.displacement_field(cone_field(model, image, pixels, "semiconv"), pixels).data
    assert cone.shape == (2, 6)
    assert np.array_equal(cone, whole)


def test_displacement_off_the_cone_is_rows_ats_error():
    # a cone's field: [2, 3] values for 3 pixels of a 4x5 image
    at = np.full((4, 5), -1, dtype=np.int32)
    at.reshape(-1)[[2, 7, 19]] = np.arange(3)
    field = E.EmbeddingField(Tensor(np.zeros((2, 3))), at)
    assert E.displacement_field(field, [19, 2]).data.tolist() == [[-4.0, -2.0], [-3.0, 0.0]]
    with pytest.raises(ValueError, match=r"^image pixel \(3, 1\) lies outside the field's cone$"):
        E.displacement_field(field, [2, 8])


def test_field_rows_layout():
    vals = Tensor(np.arange(24.0).reshape(2, 3, 4))
    rows = E.field_rows(E.EmbeddingField(vals))
    assert rows.data.shape == (12, 2)
    # pixel (y=1, x=2) is linear index 6
    assert np.array_equal(rows.data[6], [vals.data[0, 1, 2], vals.data[1, 1, 2]])


def test_rows_at_reads_a_whole_image_field_in_one_node():
    # the N rows come straight from the field's values: one take_columns
    # node, no transposed copy of the whole field before the gather
    rng = np.random.default_rng(6)
    values = Tensor(rng.standard_normal((8, 128, 128)), requires_grad=True)
    pixels = rng.choice(128 * 128, size=464, replace=False)
    rows = E.rows_at(E.EmbeddingField(values), pixels)
    assert rows._op == "take_columns" and rows._parents == (values,)
    assert T._topo_order(rows) == [values, rows]
    assert np.array_equal(rows.data, values.data.reshape(8, -1)[:, pixels].T)


def test_period_shift_moves_geometric_dims_only():
    # periodic image + circular conv: embeddings of period-shifted pixels
    # differ exactly by the period in the coordinate channels, 0 elsewhere
    rng = np.random.default_rng(3)
    p = 4
    tile = rng.standard_normal((1, p, p))
    img = Tensor(np.tile(tile, (1, 3, 3)))
    w = Tensor(rng.standard_normal((4, 1, 3, 3)))
    phi = image_conv(img, w)
    psi = E.attach_coords(phi, E.coord_grid(3 * p, 3 * p)).data
    a = psi[:, 2, 3]
    b = psi[:, 2 + p, 3 + p]
    assert np.array_equal(b - a, [p, p, 0.0, 0.0])

