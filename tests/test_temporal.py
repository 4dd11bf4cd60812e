import warnings

import numpy as np
import pytest

from lanekit.temporal import EgoPose, MemoryQueue, propagate_points, relative_transform


def random_pose(rng):
    # rotation via QR of a random matrix, sign-fixed to a proper rotation
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return EgoPose.from_parts(q, rng.uniform(-50.0, 50.0, 3))


class TestEgoPose:
    def test_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 0.1
        with pytest.raises(ValueError):
            EgoPose(m)

    def test_rejects_non_orthonormal_rotation(self):
        m = np.eye(4)
        m[0, 0] = 2.0
        with pytest.raises(ValueError):
            EgoPose(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 3), (1, 3), (2, 3), (0, 0), (1, 2)],
                             ids=["tx", "ty", "tz", "r00", "r12"])
    def test_rejects_non_finite_entries_without_a_warning(self, entry, bad):
        m = np.eye(4)
        m[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pose has non-finite entries"):
                EgoPose.from_parts(m[:3, :3], m[:3, 3])

    def test_accepts_exactly_what_allclose_accepts(self):
        def accepted(m):
            try:
                EgoPose(m)
            except ValueError:
                return False
            return True

        def allclose_rule(m):
            r = m[:3, :3]
            return (np.isfinite(m[:3, 3]).all() and np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9)
                    and np.allclose(r.T @ r, np.eye(3), atol=1e-9))

        def around(value, count=4):
            """`value` and its `count` nearest floats on either side."""
            return [value + k * np.spacing(value) for k in range(-count, count + 1)]

        # Entries 1 ulp and more either side of the 1e-9 and 1e-9 + 1e-5 * 1 tolerances: in the
        # bottom row, an off-diagonal rotation entry (R^T R holds it exactly) and a diagonal
        # entry d (R^T R holds d * d).
        groups = []
        for sign in (1.0, -1.0):
            groups += [[(3, k, v) for v in around(sign * 1e-9)] for k in range(3)]
            groups.append([(3, 3, v) for v in around(1.0 + sign * (1e-9 + 1e-5))])
            groups.append([(0, 1, v) for v in around(sign * 1e-9)])
            groups.append([(0, 0, v) for v in around(np.sqrt(1.0 + sign * (1e-9 + 1e-5)))])
        for group in groups:
            verdicts = set()
            for i, j, v in group:
                m = np.eye(4)
                m[i, j] = v
                assert accepted(m) == allclose_rule(m), (i, j, v)
                verdicts.add(accepted(m))
            assert verdicts == {True, False}
        for v in (np.nan, np.inf, -np.inf):
            for i, j in ((3, 0), (3, 3), (0, 0), (1, 2), (0, 3)):
                m = np.eye(4)
                m[i, j] = v
                with np.errstate(invalid="ignore"):  # inf * 0 in R^T R, on both sides
                    assert accepted(m) == allclose_rule(m), (i, j, v)
        rng = np.random.default_rng(2)
        verdicts = set()
        for _ in range(300):
            m = random_pose(rng).matrix.copy()
            assert accepted(m) and allclose_rule(m)
            m[rng.integers(4), rng.integers(3)] += rng.normal() * 10.0 ** rng.uniform(-12, -2)
            assert accepted(m) == allclose_rule(m)
            verdicts.add(accepted(m))
        assert verdicts == {True, False}

    def test_inverse_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pose = random_pose(rng)
            np.testing.assert_allclose(pose.inverse_matrix() @ pose.matrix, np.eye(4), atol=1e-12)


class TestPropagation:
    def test_identity_when_poses_match(self):
        rng = np.random.default_rng(2)
        pose = random_pose(rng)
        pts = rng.uniform(-10, 10, (7, 4))
        np.testing.assert_allclose(propagate_points(pts, pose, pose), pts, atol=1e-9)

    def test_forward_translation_shifts_y(self):
        src = EgoPose.identity()
        dst = EgoPose.from_parts(np.eye(3), [0.0, 2.0, 0.0])
        pts = np.array([[0.0, 10.0, 0.0, 0.7]])
        moved = propagate_points(pts, src, dst)
        np.testing.assert_allclose(moved, [[0.0, 8.0, 0.0, 0.7]], atol=1e-12)

    def test_chained_propagation_matches_direct(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            a, b, c = (random_pose(rng) for _ in range(3))
            pts = rng.uniform(-20, 20, (5, 4))
            chained = propagate_points(propagate_points(pts, a, b), b, c)
            direct = propagate_points(pts, a, c)
            worst = max(worst, np.abs(chained - direct).max())
        assert worst < 1e-10

    def test_chained_matches_explicit_composition(self):
        rng = np.random.default_rng(4)
        a, b = random_pose(rng), random_pose(rng)
        pts = rng.uniform(-20, 20, (5, 4))
        composed = relative_transform(a, b)
        expected = pts.copy()
        expected[:, :3] = pts[:, :3] @ composed[:3, :3].T + composed[:3, 3]
        np.testing.assert_allclose(propagate_points(pts, a, b), expected, atol=1e-12)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            pts = rng.uniform(-20, 20, (8, 4))
            moved = propagate_points(pts, a, b)
            d0 = np.linalg.norm(pts[:, None, :3] - pts[None, :, :3], axis=2)
            d1 = np.linalg.norm(moved[:, None, :3] - moved[None, :, :3], axis=2)
            assert np.abs(d0 - d1).max() < 1e-9

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            pts = rng.uniform(-20, 20, (6, 4))
            back = propagate_points(propagate_points(pts, a, b), b, a)
            assert np.abs(back - pts).max() < 1e-10

    def test_visibility_bitwise_unchanged(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            pts = rng.uniform(-20, 20, (6, 4))
            moved = propagate_points(pts, a, b)
            assert np.array_equal(moved[:, 3], pts[:, 3])


def push_block(queue, rng, frame, n_lanes=5, m=4, channels=3, pose=None, confidences=None):
    pose = pose or EgoPose.identity()
    points = rng.uniform(-10, 10, (n_lanes, m, 4))
    embeddings = rng.normal(size=(n_lanes, m, channels))
    if confidences is None:
        confidences = rng.uniform(0, 1, n_lanes)
    queue.push_frame(points, embeddings, confidences, pose, frame, keep=3)
    return points, confidences


class TestMemoryQueue:
    def test_single_push_single_block(self):
        queue = MemoryQueue(capacity=3)
        push_block(queue, np.random.default_rng(0), frame=0)
        assert len(queue) == 1

    def test_fifo_eviction(self):
        queue = MemoryQueue(capacity=3)
        rng = np.random.default_rng(1)
        for f in range(4):
            push_block(queue, rng, frame=f)
        assert len(queue) == 3
        assert [b.frame_index for b in queue.blocks] == [3, 2, 1]

    def test_entry_count_bound(self):
        queue = MemoryQueue(capacity=3)
        rng = np.random.default_rng(2)
        for f in range(10):
            push_block(queue, rng, frame=f, n_lanes=6, m=4)
        assert queue.entry_count <= 3 * 3 * 4

    def test_top_k_by_confidence(self):
        queue = MemoryQueue(capacity=2)
        rng = np.random.default_rng(3)
        points = rng.uniform(size=(3, 4, 4))
        emb = rng.normal(size=(3, 4, 2))
        queue.push_frame(points, emb, [0.9, 0.1, 0.5], EgoPose.identity(), 0, keep=2)
        block = queue.blocks[0]
        assert block.lane_ids.tolist() == [0, 2]
        np.testing.assert_allclose(block.confidences, [0.9, 0.5])

    def test_keep_larger_than_lane_count_warns(self):
        queue = MemoryQueue(capacity=2)
        rng = np.random.default_rng(4)
        with pytest.warns(UserWarning):
            queue.push_frame(rng.uniform(size=(2, 4, 4)), rng.normal(size=(2, 4, 2)),
                             [0.5, 0.4], EgoPose.identity(), 0, keep=5)
        assert queue.blocks[0].points.shape[0] == 2

    def test_static_ego_view_equals_storage(self):
        queue = MemoryQueue(capacity=3)
        rng = np.random.default_rng(5)
        pose = EgoPose.identity()
        stored, _ = push_block(queue, rng, frame=0, pose=pose)
        view = queue.view(pose)
        kept = queue.blocks[0].points.reshape(-1, 4)
        np.testing.assert_allclose(view.points, kept, atol=1e-12)

    def test_view_delegates_to_propagation(self):
        queue = MemoryQueue(capacity=1)
        rng = np.random.default_rng(6)
        src = random_pose(rng)
        current = random_pose(rng)
        points = rng.uniform(-5, 5, (1, 4, 4))
        queue.push_frame(points, rng.normal(size=(1, 4, 2)), [1.0], src, 0, keep=1)
        view = queue.view(current)
        expected = propagate_points(points.reshape(-1, 4), src, current)
        np.testing.assert_allclose(view.points, expected, atol=1e-12)

    def test_blocks_propagated_by_own_pose(self):
        queue = MemoryQueue(capacity=3)
        rng = np.random.default_rng(7)
        poses = [random_pose(rng) for _ in range(3)]
        stored = []
        for f, pose in enumerate(poses):
            pts = rng.uniform(-5, 5, (2, 4, 4))
            queue.push_frame(pts, rng.normal(size=(2, 4, 2)), [0.8, 0.6], pose, f, keep=2)
            stored.append(pts)
        current = random_pose(rng)
        view = queue.view(current)
        # blocks are most-recent-first; each transformed by its own source pose
        expected = np.concatenate([
            propagate_points(stored[2].reshape(-1, 4), poses[2], current),
            propagate_points(stored[1].reshape(-1, 4), poses[1], current),
            propagate_points(stored[0].reshape(-1, 4), poses[0], current),
        ])
        np.testing.assert_allclose(view.points, expected, atol=1e-12)

    def test_empty_view(self):
        queue = MemoryQueue(capacity=2)
        view = queue.view(EgoPose.identity())
        assert len(view) == 0

    def test_view_keeps_embeddings_and_visibility(self):
        queue = MemoryQueue(capacity=1)
        rng = np.random.default_rng(8)
        src, current = random_pose(rng), random_pose(rng)
        points = rng.uniform(-5, 5, (2, 3, 4))
        emb = rng.normal(size=(2, 3, 5))
        queue.push_frame(points, emb, [0.9, 0.8], src, 0, keep=2)
        view = queue.view(current)
        np.testing.assert_array_equal(view.embeddings, emb.reshape(-1, 5))
        np.testing.assert_array_equal(view.points[:, 3], points.reshape(-1, 4)[:, 3])
