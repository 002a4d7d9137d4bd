"""Piecewise-affine mesh potentials, jump sets, wall classification and the
limit interfacial energy."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from mesh_reference import classify_triple, columns, dict_jump_set, edge_owners, first_match, \
    hanging_node_mesh, mesh_svg, mesh_variant, refined_mesh, rows, split_diagonal_mesh, \
    three_owner_mesh, with_three_owner_edge

from helimag.continuum import (
    CLASSES,
    SIGMA_AXIS,
    SIGMA_DIAG,
    MeshError,
    MeshPotential,
    build_example,
    classify,
    jump_set,
    kink_edges,
    limit_energy,
    mesh_to_svg,
    sigma,
    total_variations,
    validate_mesh,
)
from helimag.lattice import Domain
from helimag.recovery import WALL_WIDTH, SweepSchedule, extend_potential, gauss_legendre

LABELS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


KINDS = ("vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant", "laminate")
DOMAINS = [Domain(), Domain(x0=-1.5, y0=2.0, width=3.0, height=3.0)]
R2 = 1.0 / math.sqrt(2.0)
NORMALS = [(1.0, 0.0), (0.0, 1.0), (R2, R2), (R2, -R2), (-1.0, -0.0), (-0.0, -1.0),
           (-R2, -R2), (-R2, R2)]


def class_of(plus, minus, nu):
    """The class name of one triple by the array classifier."""
    return CLASSES[int(classify(plus, minus, nu))]


def two_triangle_mesh(h3=1.0):
    """Unit square split along the anti-diagonal; heights at (0,0),(1,0),(0,1),(1,1)."""
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    tris = np.array([(0, 1, 2), (1, 3, 2)])
    heights = np.array([0.0, 1.0, 1.0, h3])
    return MeshPotential(vertices=verts, triangles=tris, heights=heights, domain=Domain())


class TestMeshPotential:
    def test_gradients(self):
        m = two_triangle_mesh(h3=0.0)
        g = m.gradients()
        np.testing.assert_allclose(g[0], [1.0, 1.0])
        np.testing.assert_allclose(g[1], [-1.0, -1.0])

    def test_degenerate_triangle(self):
        m = MeshPotential(
            vertices=np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
            triangles=np.array([(0, 1, 2)]),
            heights=np.zeros(3),
            domain=Domain(),
        )
        # the edge vectors are kept; the check that reads them raises each time
        for _ in range(2):
            with pytest.raises(MeshError, match="degenerate"):
                m.gradients()
        assert m._edge_vectors[2].tolist() == [0.0]

    def test_evaluate_matches_heights(self):
        m = two_triangle_mesh()
        v = m.vertices
        np.testing.assert_allclose(extend_potential(m)(v[:, 0], v[:, 1]), m.heights, atol=1e-12)

    def test_evaluate_affine_inside(self):
        ext = extend_potential(two_triangle_mesh(h3=0.0))
        assert ext(0.25, 0.25) == pytest.approx(0.5)
        assert ext(0.75, 0.75) == pytest.approx(0.5)

    def test_evaluate_outside_raises(self):
        # the mesh interpolant is defined on the mesh only; extend_potential
        # clips to the domain before it locates
        with pytest.raises(ValueError, match="outside the mesh"):
            two_triangle_mesh().locate(1.5, 0.5)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_triangle_index_out_of_range(self, bad):
        with pytest.raises(ValueError, match="indices"):
            MeshPotential(
                vertices=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
                triangles=np.array([(0, 1, 2), (1, bad, 2)]),
                heights=np.zeros(4),
                domain=Domain(),
            )

    @pytest.mark.parametrize("index", [1e30, -1e30, 2.0 ** 63])
    def test_huge_float_triangle_index(self, index):
        # out of range before the cast to int, which would warn on them
        verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"indices must lie in \[0, 4\)"):
                MeshPotential(verts, np.array([(0.0, 1.0, 2.0), (1.0, 3.0, index)]),
                              np.zeros(4), Domain())

    @pytest.mark.parametrize("index", [0.7, np.nan])
    def test_non_integral_triangle_index(self, index):
        verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="integers"):
            MeshPotential(verts, np.array([(0, 1, 2), (1, 3, index)]), np.zeros(4), Domain())
        # integral floats are indices
        m = MeshPotential(verts, np.array([(0.0, 1.0, 2.0), (1.0, 3.0, 2.0)]), np.zeros(4),
                          Domain())
        np.testing.assert_array_equal(m.triangles, [(0, 1, 2), (1, 3, 2)])

    @pytest.mark.parametrize("field", ["vertices", "heights"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_mesh(self, field, value):
        m = two_triangle_mesh()
        changed = getattr(m, field).copy()
        changed[1] = value
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(m, **{field: changed})

    def test_json_roundtrip(self):
        m = build_example("four_quadrant")
        m2 = MeshPotential.from_json(m.to_json())
        np.testing.assert_array_equal(m2.triangles, m.triangles)
        np.testing.assert_allclose(m2.vertices, m.vertices)
        np.testing.assert_allclose(m2.heights, m.heights)
        assert m2.domain.corners() == m.domain.corners()

    def test_validate_example_meshes(self):
        for kind in ("vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant"):
            validate_mesh(build_example(kind))

    def test_validate_rejects_non_unit_gradient(self):
        m = two_triangle_mesh(h3=0.5)
        with pytest.raises(MeshError):
            validate_mesh(m)


def assert_locates_vertices_and_edges(m):
    """locate equals the first-match loop at the vertices, at 9 points along
    every edge and on the tensor grid of their coordinates (sorted and
    shuffled axes)."""
    v = m.vertices
    t = np.linspace(0.0, 1.0, 9)[:, None]
    pts = np.concatenate(
        [v]
        + [v[i] + t * (v[j] - v[i])
           for a, b, c in m.triangles for i, j in ((a, b), (b, c), (c, a))]
    )
    want = first_match(m, pts[:, 0], pts[:, 1])[0]
    assert np.all(want >= 0)
    np.testing.assert_array_equal(m.locate(pts[:, 0], pts[:, 1]), want)
    rng = np.random.default_rng(3)
    xs = np.unique(pts[:, 0])
    ys = np.unique(pts[:, 1])
    for gx, gy in ((xs, ys), (rng.permutation(xs), rng.permutation(ys))):
        want = first_match(m, gx[None, :], gy[:, None])[0]
        assert np.all(want >= 0)
        np.testing.assert_array_equal(m.locate(gx[None, :], gy[:, None]), want)


class TestImmutableMesh:
    """A mesh's arrays and its derived geometry are read-only, computed once
    and rebuilt only for a new mesh."""

    def derived(self, m):
        grads = m.gradients()
        return [grads, m.labels, m.affine_coefficients, m.locate_pad, *m._edges, *m._edge_vectors,
                *(getattr(m.jumps, f.name) for f in dataclasses.fields(m.jumps))]

    def test_arrays_are_read_only_copies(self):
        verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        tris = np.array([(0, 1, 2), (1, 3, 2)])
        heights = np.array([0.0, 1.0, 1.0, 0.0])
        m = MeshPotential(verts, tris, heights, Domain())
        verts[0, 0] = tris[0, 0] = heights[0] = 5
        assert m.vertices[0, 0] == m.triangles[0, 0] == m.heights[0] == 0
        for a in (m.vertices, m.triangles, m.heights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.heights = heights

    @pytest.mark.parametrize("kind", KINDS)
    def test_derived_arrays_are_computed_once_and_read_only(self, kind):
        m = build_example(kind)
        first = self.derived(m)
        validate_mesh(m)
        kink_edges(m)
        limit_energy(m)
        m.locate(0.5, 0.5)
        for a, b in zip(first, self.derived(m)):
            assert a is b
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_validation_error_is_raised_on_every_access(self):
        m = two_triangle_mesh(h3=0.5)
        for _ in range(2):
            with pytest.raises(MeshError, match="gradients off"):
                m.labels
            with pytest.raises(MeshError, match="gradients off"):
                limit_energy(m)

    def test_locate_does_not_validate(self):
        # gradients off the lattice: the labels fail, locate still answers,
        # and the gradients divide by the determinants locate's tables use
        m = two_triangle_mesh(h3=0.5)
        assert m.locate(np.array([0.2, 0.8]), np.array([0.1, 0.9])).tolist() == [0, 1]
        with pytest.raises(MeshError, match="gradients off"):
            m.labels
        assert m._gradients_and_dets[1] is m._edge_vectors[2]
        assert m.locate(0.2, 0.1) == 0

    def test_replace_gives_fresh_geometry(self):
        m = build_example("vertical_wall")
        assert len(m.jumps) == 1
        flat = dataclasses.replace(m, heights=m.vertices[:, 0] + m.vertices[:, 1])
        assert flat.vertices is not m.vertices
        assert len(flat.jumps) == 0
        assert validate_mesh(flat) == [(1, 1)] * 4
        np.testing.assert_array_equal(flat.gradients(), np.ones((4, 2)))
        assert limit_energy(flat) == 0.0
        assert len(m.jumps) == 1 and limit_energy(m) == pytest.approx(8.0 / 3.0)


class TestLocate:
    """MeshPotential.locate against the first-match loop over every
    triangle."""

    @pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "offset"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_vertices_and_edges(self, kind, domain):
        assert_locates_vertices_and_edges(build_example(kind, domain=domain, n=8))

    @pytest.mark.parametrize("mesh", [hanging_node_mesh, three_owner_mesh])
    def test_non_conforming_meshes(self, mesh):
        # triangles overlap along shared edges: their order picks the winner
        assert_locates_vertices_and_edges(mesh())

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize(
        "mesh",
        [pytest.param(lambda k=k, d=d: build_example(k, domain=d, n=4), id=f"{k}-{name}")
         for k in KINDS for d, name in zip(DOMAINS, ["unit", "offset"])]
        + [pytest.param(hanging_node_mesh, id="hanging_node"),
           pytest.param(three_owner_mesh, id="three_owner")],
    )
    def test_mollifier_quadrature_axes(self, mesh, n):
        # the axes the recovery mollifier passes to the extension: unsorted,
        # neighbouring columns overlap, clipped onto the domain's boundary
        m = mesh()
        x0, y0, x1, y1 = m.domain.corners()
        params = SweepSchedule.default(finest_n=n, levels=1, size=m.domain.width).steps[0]
        nodes, _ = gauss_legendre(24)
        eps = WALL_WIDTH * params.epsilon
        sx = np.clip((x0 + params.lam * np.arange(n)[:, None] + eps * nodes).ravel(), x0, x1)
        sy = np.clip((y0 + params.lam * np.arange(n)[:, None] + eps * nodes).ravel(), y0, y1)
        assert np.any(np.diff(sx) < 0.0) and np.any(sx == x0) and np.any(sx == x1)
        want = first_match(m, sx[None, :], sy[:, None])[0]
        assert np.all(want >= 0)
        np.testing.assert_array_equal(m.locate(sx[None, :], sy[:, None]), want)

    @pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "offset"])
    def test_points_at_the_barycentric_slack(self, domain):
        # each vertex pushed outward to barycentric coordinates
        # (1 + 1.98 tol, -0.99 tol, -0.99 tol): the loop accepts these
        # points, which lie outside the triangles' bounding boxes
        m = build_example("four_quadrant", domain=domain)
        tol = 1e-9 * max(1.0, np.abs(m.vertices).max())
        corners = m.vertices[m.triangles]  # (M, 3, 2)
        lam = np.full((3, 3), -0.99 * tol) + np.eye(3) * (1.0 + 2.97 * tol)
        pts = np.einsum("kc,mcd->mkd", lam, corners).reshape(-1, 2)
        want = first_match(m, pts[:, 0], pts[:, 1])[0]
        assert np.all(want >= 0)
        np.testing.assert_array_equal(m.locate(pts[:, 0], pts[:, 1]), want)

    @pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "offset"])
    def test_outside_raises(self, domain):
        m = build_example("four_quadrant", domain=domain)
        x0, y0, x1, y1 = domain.corners()
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        off = 1e-6 * domain.width
        for x, y in ((x1 + off, cy), (cx, y0 - off), (x0 - 1.0, y1 + 1.0)):
            assert first_match(m, x, y)[0] == -1
            with pytest.raises(ValueError, match="outside the mesh"):
                m.locate(x, y)
        with pytest.raises(ValueError, match="outside the mesh"):
            m.locate(np.array([[x0, cx, x1 + off]]), np.array([[y0], [y1]]))

    def test_shapes(self):
        m = build_example("four_quadrant")
        assert m.locate(0.2, 0.7).shape == ()
        assert m.locate(np.zeros((0,)), 0.5).shape == (0,)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, (3, 1, 5))
        y = rng.uniform(0.0, 1.0, (4, 1))
        got = m.locate(x, y)
        assert got.shape == (3, 4, 5)
        np.testing.assert_array_equal(got, first_match(m, x, y)[0])


class TestClassify:
    def test_axis_w_wall(self):
        assert class_of((1, 1), (-1, 1), (1.0, 0.0)) == "J1"

    def test_axis_z_wall(self):
        assert class_of((1, 1), (1, -1), (0.0, 1.0)) == "J2"

    def test_diagonal_wall(self):
        r = 1.0 / math.sqrt(2.0)
        assert class_of((1, 1), (-1, -1), (r, r)) == "J3"

    def test_rank_one_violation(self):
        # w jumps but the normal has a vertical component
        r = 1.0 / math.sqrt(2.0)
        assert class_of((1, 1), (-1, 1), (r, r)) == "inadmissible"

    def test_equal_traces(self):
        assert class_of((1, 1), (1, 1), (1.0, 0.0)) == "inadmissible"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            class_of((2, 1), (1, 1), (1.0, 0.0))
        with pytest.raises(ValueError):
            class_of((1, 1), (-1, 1), (2.0, 0.0))

    def test_exactly_twelve_admissible_up_to_swap(self):
        r = 1.0 / math.sqrt(2.0)
        normals = [(1.0, 0.0), (0.0, 1.0), (r, r), (r, -r)]
        normals += [(-a, -b) for a, b in normals]
        seen = set()
        ordered = 0
        for plus in LABELS:
            for minus in LABELS:
                for nu in normals:
                    if class_of(plus, minus, nu) != "inadmissible":
                        ordered += 1
                        a = (plus, minus, (round(nu[0], 6), round(nu[1], 6)))
                        b = (minus, plus, (round(-nu[0], 6), round(-nu[1], 6)))
                        seen.add(min(a, b))
        assert ordered == 24
        assert len(seen) == 12

    def test_array_matches_scalar_rule(self):
        # every ordered trace pair (equal ones too) against eight normals
        triples = [(a, b, nu) for a in LABELS for b in LABELS for nu in NORMALS]
        plus, minus, nus = (np.array(c, dtype=float) for c in zip(*triples))
        got = classify(plus, minus, nus)
        assert got.shape == (128,)
        assert [CLASSES[c] for c in got.tolist()] == [classify_triple(*t) for t in triples]
        assert np.count_nonzero(got) == 24

    @pytest.mark.parametrize("column, value", [
        (0, (1.0, 1.5)), (1, (-1.0, 0.0)), (0, (math.nan, 1.0)),
        (2, (1.0, 1e-3)), (2, (0.6, 0.6)), (2, (math.nan, 0.0)),
    ])
    def test_one_bad_row_rejects_the_batch(self, column, value):
        good = (((1, 1), (-1, 1), (1.0, 0.0)), ((1, 1), (-1, -1), (R2, R2)))
        triples = [list(good[i % 2]) for i in range(6)]
        triples[4][column] = value
        plus, minus, nus = (np.array(c, dtype=float) for c in zip(*triples))
        with pytest.raises(ValueError, match="traces" if column < 2 else "unit vector"):
            classify(plus, minus, nus)


class TestSigma:
    def test_axis_values(self):
        assert sigma((1, 1), (-1, 1), (1.0, 0.0)) == pytest.approx(SIGMA_AXIS)
        assert sigma((1, 1), (1, -1), (0.0, 1.0)) == pytest.approx(SIGMA_AXIS)

    def test_diagonal_value(self):
        r = 1.0 / math.sqrt(2.0)
        assert sigma((1, 1), (-1, -1), (r, r)) == pytest.approx(SIGMA_DIAG)

    def test_swap_invariance(self):
        r = 1.0 / math.sqrt(2.0)
        a = sigma((1, 1), (-1, -1), (r, r))
        b = sigma((-1, -1), (1, 1), (-r, -r))
        assert a == pytest.approx(b)

    def test_inadmissible_raises(self):
        with pytest.raises(ValueError):
            sigma((1, 1), (1, 1), (1.0, 0.0))

    def test_arrays(self):
        r = 1.0 / math.sqrt(2.0)
        got = sigma([(1, 1), (1, 1)], [(-1, 1), (-1, -1)], [(1.0, 0.0), (r, r)])
        np.testing.assert_allclose(got, [SIGMA_AXIS, SIGMA_DIAG], rtol=1e-15)
        with pytest.raises(ValueError):
            sigma([(1, 1), (1, 1)], [(-1, 1), (1, 1)], [(1.0, 0.0), (1.0, 0.0)])


class TestJumpSet:
    def test_vertical_wall_single_segment(self):
        segs = jump_set(build_example("vertical_wall"))
        assert len(segs) == 1
        assert segs.length[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.abs(segs.nu[0]), [1.0, 0.0], atol=1e-12)

    def test_no_jumps_on_single_gradient(self):
        m = MeshPotential(
            vertices=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
            triangles=np.array([(0, 1, 2), (1, 3, 2)]),
            heights=np.array([0.0, 1.0, 1.0, 2.0]),
            domain=Domain(),
        )
        segs = jump_set(m)
        assert len(segs) == 0
        assert segs.p.shape == segs.nu.shape == segs.plus.shape == (0, 2)

    def test_four_quadrant_segments(self):
        segs = jump_set(build_example("four_quadrant"))
        assert segs.length.sum() == pytest.approx(2.0)
        classes = classify(segs.plus, segs.minus, segs.nu)
        assert set(classes.tolist()) <= {CLASSES.index("J1"), CLASSES.index("J2")}

    def test_laminate_wall_count(self):
        segs = jump_set(build_example("laminate", n=4))
        assert len(segs) == 4
        np.testing.assert_allclose(segs.length, 1.0)

    def test_collinear_merging(self):
        # refined vertical wall still yields one merged segment
        m = build_example("vertical_wall")
        segs = jump_set(m)
        assert len(segs) == 1


class TestJumpSetReference:
    """The vectorised jump set against the dict-of-edges loop: equal columns,
    exact floats and order."""

    @pytest.mark.parametrize("variant", ["plain", "shuffled", "rotated", "three_owners"])
    @pytest.mark.parametrize("k", [4, 8, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_refined_meshes(self, kind, k, variant):
        rng = np.random.default_rng([KINDS.index(kind), k])
        m = mesh_variant(refined_mesh(kind, k, rng), variant, rng)
        want = dict_jump_set(m)
        got = jump_set(m)
        assert want
        assert columns(got) == columns(want)
        assert repr(columns(got)) == repr(columns(want))  # also tells -0.0 from 0.0

    # on the side 2.1 np.hypot and math.hypot differ in the last bit of the
    # diagonal's length
    @pytest.mark.parametrize("domain", DOMAINS + [Domain(x0=0.3, y0=-1.0, width=2.1, height=2.1)],
                             ids=["unit", "offset", "side_2.1"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_example_meshes(self, kind, domain):
        m = build_example(kind, domain=domain, n=5)
        assert repr(columns(jump_set(m))) == repr(columns(dict_jump_set(m)))

    @pytest.mark.parametrize("x0, t, count", [
        # the two edges' normals differ in the last bit; the segment takes
        # the first edge's
        (0.0, 0.05, 1), (0.0, 0.3, 1), (0.0, 0.85, 1),
        # the edges' offsets nu . p, as 2-vector dot products, round to
        # neighbouring keys, which splits the wall; a0*b0 + a1*b1 would not
        (0.11204462079090798, 0.5, 2), (-0.10400405822705878, 0.5, 2),
    ])
    def test_split_diagonal(self, x0, t, count):
        m = split_diagonal_mesh(x0, t)
        got = jump_set(m)
        assert len(got) == count
        assert repr(columns(got)) == repr(columns(dict_jump_set(m)))

    def test_long_laminate(self):
        m = build_example("laminate", n=5000)
        got = jump_set(m)
        assert len(got) == 5000
        assert repr(columns(got)) == repr(columns(dict_jump_set(m)))
        assert limit_energy(m) == pytest.approx(5000 * 8.0 / 3.0, rel=1e-12, abs=0.0)

    def test_three_owner_edge_is_skipped(self):
        # the edge (1, 0)-(0, 1) belongs to A = (0, 1, 2) with label (1, 1),
        # B = (1, 3, 2) with label (-1, -1) and C = (1, 2, 4) with label
        # (-1, -1); it is not a jump edge, and no other edge is shared
        m = MeshPotential(
            vertices=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0)]),
            triangles=np.array([(0, 1, 2), (1, 3, 2), (1, 2, 4)]),
            heights=np.array([0.0, 1.0, 1.0, 0.0, 1.5]),
            domain=Domain(width=1.25),
        )
        assert validate_mesh(m) == [(1, 1), (-1, -1), (-1, -1)]
        assert columns(jump_set(m)) == columns(dict_jump_set(m))
        assert len(jump_set(m)) == 0

    @pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "offset"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_kink_edges_of_conforming_meshes_cover_the_jump_set(self, kind, domain):
        rng = np.random.default_rng(KINDS.index(kind))
        for m in (build_example(kind, domain=domain, n=5), refined_mesh(kind, 8, rng)):
            p, q = kink_edges(m)
            length = np.hypot(*(q - p).T).sum()
            assert length == pytest.approx(jump_set(m).length.sum(), rel=1e-12)

    @pytest.mark.parametrize("make", [three_owner_mesh, hanging_node_mesh])
    def test_meshes_whose_wall_jump_set_misses_have_kink_edges(self, make):
        m = make()
        validate_mesh(m)
        assert len(jump_set(m)) == 0
        p, q = kink_edges(m)
        assert p.shape == q.shape and len(p) > 0

    def test_three_owner_edges_are_kink_edges(self):
        # the duplicated triangle's diagonal has three owners of one label
        m = with_three_owner_edge(refined_mesh("vertical_wall", 4, np.random.default_rng(0)),
                                  np.random.default_rng(1))
        v = m.vertices.tolist()
        three = {tuple(sorted((tuple(v[i]), tuple(v[j]))))
                 for (i, j), ts in edge_owners(m).items() if len(ts) == 3}
        p, q = kink_edges(m)
        kinks = {tuple(sorted((tuple(a), tuple(b)))) for a, b in zip(p.tolist(), q.tolist())}
        assert len(three) >= 2 and three <= kinks

    def test_functions_read_the_mesh_jump_set(self, with_jump_set):
        m = build_example("four_quadrant")
        segs = jump_set(m)
        same = with_jump_set(m, segs)
        assert total_variations(same) == total_variations(m)
        assert limit_energy(same) == limit_energy(m)
        one = rows(segs, slice(None, 1))
        assert limit_energy(with_jump_set(m, one)) == pytest.approx(SIGMA_AXIS * segs.length[0])
        assert mesh_to_svg(same) == mesh_to_svg(m)
        assert mesh_to_svg(with_jump_set(m, rows(segs, slice(0, 0)))).count("<line") == 0


class TestLimitEnergy:
    def test_vertical_wall(self):
        assert limit_energy(build_example("vertical_wall")) == pytest.approx(8.0 / 3.0)

    def test_horizontal_wall(self):
        assert limit_energy(build_example("horizontal_wall")) == pytest.approx(8.0 / 3.0)

    def test_diagonal_wall(self):
        # anti-diagonal chord of the unit square: length sqrt(2), both
        # components jump, sigma = sqrt(2)*8/3
        want = SIGMA_DIAG * math.sqrt(2.0)
        assert limit_energy(build_example("diagonal_wall")) == pytest.approx(want)

    def test_four_quadrant(self):
        assert limit_energy(build_example("four_quadrant")) == pytest.approx(16.0 / 3.0)

    def test_laminate_scaling(self):
        for n in (1, 3, 5):
            got = limit_energy(build_example("laminate", n=n))
            assert got == pytest.approx(n * 8.0 / 3.0)

    def test_domain_scaling(self):
        d = Domain(width=2.0, height=3.0)
        got = limit_energy(build_example("vertical_wall", d))
        assert got == pytest.approx(3.0 * 8.0 / 3.0)

    def test_long_jump_set_passes_the_cross_check(self, with_jump_set):
        # a running sum of 100,000 rounded 8/3 drifts by about 1.3e-12
        # relative, past the 1e-12 agreement the two sums must show
        m = build_example("vertical_wall")
        segs = jump_set(m)
        assert len(segs) == 1
        got = limit_energy(with_jump_set(m, rows(segs, np.repeat(0, 100_000))))
        assert got == pytest.approx(8.0 / 3.0 * 100_000, rel=1e-12, abs=0.0)

    def test_bootstrap_inequalities(self):
        # |D2 w| <= |D2 z| and |D1 z| <= |D1 w| for curl-free label fields
        kinds = [("vertical_wall", {}), ("horizontal_wall", {}), ("diagonal_wall", {}),
                 ("four_quadrant", {})] + [("laminate", {"n": n}) for n in range(1, 9)]
        for kind, kw in kinds:
            d1w, d2w, d1z, d2z = total_variations(build_example(kind, **kw))
            assert d2w <= d2z + 1e-12
            assert d1z <= d1w + 1e-12


class TestSvg:
    def test_contains_jump_lines_and_labels(self):
        svg = mesh_to_svg(build_example("four_quadrant"))
        assert svg.startswith("<svg")
        assert "line" in svg and "polygon" in svg

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "offset"])
    def test_example_meshes_match_the_scalar_formatter(self, kind, domain):
        m = build_example(kind, domain=domain)
        assert mesh_to_svg(m) == mesh_svg(m, jump_set(m))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [4, 16, 33])
    def test_refined_meshes_match_the_scalar_formatter(self, kind, k):
        m = refined_mesh(kind, k, np.random.default_rng(k))
        assert mesh_to_svg(m) == mesh_svg(m, jump_set(m))

    def test_thousand_wall_laminate_matches_the_scalar_formatter(self):
        m = build_example("laminate", n=1000)
        segs = jump_set(m)
        assert len(segs) == 1000
        assert mesh_to_svg(m) == mesh_svg(m, segs)
