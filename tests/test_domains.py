"""The boundary point of each domain nearest to a given point."""

import numpy as np
import pytest

from retfield.domains import Ball, Box

BOX = Box(lo=(-0.3, -0.1, 0.2), hi=(0.4, 0.5, 0.9))
CUBE = Box(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
BALL = Ball(center=(0.1, -0.2, 0.3), radius=0.7)


def assert_on_box_surface(box, p):
    assert np.all((box.lo <= p) & (p <= box.hi))
    assert np.any((p == box.lo) | (p == box.hi))


def near_each_face(box, gap):
    """The box's centre moved to within ``gap`` of each of its six faces."""
    points = []
    for axis in range(3):
        for face, inward in ((box.lo, gap), (box.hi, -gap)):
            x = box.center.copy()
            x[axis] = face[axis] + inward
            points.append(x)
    return points


class TestBoxNearestBoundaryPoint:
    @pytest.mark.parametrize(
        "x",
        near_each_face(BOX, 0.01)
        + near_each_face(BOX, 1e-12)
        + [BOX.center, (0.35, 0.45, 0.3), (-0.25, 0.0, 0.5)],
    )
    def test_inside_moves_onto_the_nearest_face(self, x):
        x = np.asarray(x, dtype=float)
        p = BOX.nearest_boundary_point(x)
        assert_on_box_surface(BOX, p)
        gap = min(np.min(x - BOX.lo), np.min(BOX.hi - x))
        assert np.linalg.norm(p - x) == pytest.approx(gap, rel=1e-15, abs=0)
        assert np.count_nonzero(p != x) == 1

    @pytest.mark.parametrize(
        "x",
        [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (-0.5, 0.0, 0.5), (0.25, -0.25, 0.25)],
        ids=["all-six", "two", "two-lo", "three"],
    )
    def test_tied_gaps_pick_one_face(self, x):
        x = np.asarray(x, dtype=float)
        p = CUBE.nearest_boundary_point(x)
        assert_on_box_surface(CUBE, p)
        assert np.linalg.norm(p - x) == 1.0 - np.max(np.abs(x))
        assert np.count_nonzero(p != x) == 1

    @pytest.mark.parametrize(
        "x, expected",
        [
            ((0.1, 0.2, 1.3), (0.1, 0.2, 0.9)),  # past a face
            ((-0.7, 0.2, 1.3), (-0.3, 0.2, 0.9)),  # past an edge
            ((-0.7, 0.9, -0.4), (-0.3, 0.5, 0.2)),  # past a corner
            ((0.4, 0.2, 0.5), (0.4, 0.2, 0.5)),  # on a face
        ],
        ids=["face", "edge", "corner", "on-face"],
    )
    def test_outside_clips_onto_the_box(self, x, expected):
        x = np.asarray(x, dtype=float)
        p = BOX.nearest_boundary_point(x)
        assert_on_box_surface(BOX, p)
        np.testing.assert_array_equal(p, expected)
        excess = np.maximum(np.maximum(BOX.lo - x, x - BOX.hi), 0.0)
        assert np.linalg.norm(p - x) == pytest.approx(np.sqrt(np.sum(excess**2)), rel=1e-15)
        assert np.linalg.norm(p - x) == pytest.approx(BOX.exterior_distance(x), rel=1e-15)


class TestBallNearestBoundaryPoint:
    @pytest.mark.parametrize(
        "x",
        [
            (0.2, -0.1, 0.25),
            (0.1, -0.2, 0.99),
            (0.6, 0.1, 0.0),
            (1.5, -1.0, 0.3),
            (-2.0, 3.0, 4.0),
        ],
        ids=["inside", "inside-near-pole", "inside-near-surface", "outside", "far-outside"],
    )
    def test_lies_on_the_sphere_along_the_radius(self, x):
        x = np.asarray(x, dtype=float)
        p = BALL.nearest_boundary_point(x)
        assert np.linalg.norm(p - BALL.center) == pytest.approx(BALL.radius, rel=1e-15)
        distance = np.linalg.norm(x - BALL.center)
        gap = abs(BALL.radius - distance)
        assert np.linalg.norm(p - x) == pytest.approx(gap, rel=0, abs=4e-16 * BALL.radius)
        # x, p and the centre are collinear, with p on x's side of the centre
        assert np.dot(p - BALL.center, x - BALL.center) > 0.0
        np.testing.assert_allclose(
            np.cross(p - BALL.center, x - BALL.center), 0.0, atol=1e-15 * distance
        )

    def test_centre_goes_to_the_plus_z_pole(self):
        p = BALL.nearest_boundary_point(BALL.center)
        np.testing.assert_array_equal(p, BALL.center + (0.0, 0.0, BALL.radius))
