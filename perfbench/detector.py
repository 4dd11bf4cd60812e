"""The detector's per-frame step on a curved, graded synthetic scene.

Each step runs, in order: control-point fits of the ground-truth lanes,
perturbed proposals, the memory view, one spatio-temporal attention
layer, the combined loss against the moving-average state, the
moving-average update and the memory push.  Library functions are
looked up on their modules at call time so that tracing wrappers apply.
"""

from __future__ import annotations

import numpy as np

from lanekit import attention, losses, splines, synth, temporal

PROPOSALS = 20
CONTROL_POINTS = 20
CHANNELS = 64
HEADS = 8
HISTORY = 3
KEEP = 10
K_NEAREST = 10
CLASSES = 4          # synthetic lane categories are 1..3; the last column is background
WARMUP = HISTORY     # frames that fill the memory before timing starts
Y_START, Y_END = 3.0, 103.0
SPEED_M_PER_FRAME = 1.0  # SceneSpec defaults: 10 m/s at 0.1 s per frame


class DetectorSequence:
    """State of one sequence: scene, memory queue and moving-average tracker."""

    def __init__(self, seed: int, frames: int):
        spec = synth.SceneSpec(num_lanes=4, curvature=(0.0, 0.0, 5e-4), elevation=(0.0, 0.05),
                               frames=frames, seed=seed,
                               lane_length=frames * SPEED_M_PER_FRAME + Y_END + 20.0)
        self.world = synth.gen_scene(spec)
        self.cfg = splines.CurveConfig(m=CONTROL_POINTS, y_start=Y_START, y_end=Y_END)
        self.enc = attention.EncodingConfig(dim=CHANNELS)
        self.queue = temporal.MemoryQueue(capacity=HISTORY)
        self.ema = losses.EmaTracker(np.linspace(Y_START, Y_END, 51), alpha=0.5)
        self.rng = np.random.default_rng(seed)
        self.last_inputs = None

    def step(self, frame: int):
        """One detector frame; returns (output embeddings, loss total, temporal loss)."""
        pose = self.world.trajectory.poses[frame]
        lanes = self.world.lanes_in_frame(frame, y_min=Y_START, y_max=Y_END)
        gt_controls = np.array([splines.fit_control_points(points, self.cfg) for _, _, points in lanes])
        gts = [losses.GtLane(points=points, category=category) for _, category, points in lanes]

        rng = self.rng
        proposals = gt_controls[np.arange(PROPOSALS) % len(gt_controls)].copy()
        proposals[:, :, 0] += rng.normal(0.0, 0.3, size=(PROPOSALS, 1))
        proposals[:, :, 0] += rng.normal(0.0, 0.05, size=(PROPOSALS, CONTROL_POINTS))
        proposals[:, :, 2] += rng.normal(0.0, 0.02, size=(PROPOSALS, CONTROL_POINTS))
        proposals[:, :, 3] = np.clip(proposals[:, :, 3] - rng.uniform(0.0, 0.3, size=(PROPOSALS, 1)), 0.0, 1.0)
        class_probs = rng.dirichlet(np.ones(CLASSES + 1), size=PROPOSALS)
        embeddings = rng.normal(size=(PROPOSALS, CONTROL_POINTS, CHANNELS))

        view = self.queue.view(pose)
        out = attention.spatio_temporal_layer(embeddings, proposals, view.embeddings, view.points,
                                              self.enc, heads=HEADS, k_nearest=K_NEAREST)
        breakdown = losses.combined_loss(proposals, class_probs, gts, self.cfg, ema_state=self.ema.state)
        x, z, v = losses.resample_curves_on_grid(proposals, self.cfg, self.ema.y_grid)
        temporal_loss = self.ema.step(x, z, v, pose)
        self.queue.push_frame(proposals, out, losses.lane_confidence(class_probs), pose, frame, keep=KEEP)
        self.last_inputs = (proposals, view.points)
        return out, breakdown.total, temporal_loss


def mask_degree_errors(proposals: np.ndarray, memory_points: np.ndarray) -> list[str]:
    """Rows of the three masks whose degree differs from m, 2(n-1) and k."""
    n, m = proposals.shape[:2]
    errors = []
    same = attention.same_line_mask(n, m).sum(axis=1)
    if np.any(same != m):
        errors.append(f"same-line row degrees {sorted(set(same.tolist()))} != {m}")
    neighbor = attention.neighbor_line_mask(proposals).sum(axis=1)
    if np.any(neighbor != 2 * (n - 1)):
        errors.append(f"neighbour row degrees {sorted(set(neighbor.tolist()))} != {2 * (n - 1)}")
    memory = attention.memory_mask(proposals.reshape(-1, 4), memory_points, k_nearest=K_NEAREST).sum(axis=1)
    expected = min(K_NEAREST, memory_points.shape[0])
    if np.any(memory != expected):
        errors.append(f"memory row degrees {sorted(set(memory.tolist()))} != {expected}")
    return errors
