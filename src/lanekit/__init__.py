"""Spline-based 3D lane geometry, temporal propagation, losses, metrics,
and trajectory-driven auto-labeling.

numpy is the only run-time dependency: the one-to-one matching that the
losses and metrics need comes from `lanekit.assignment`.
"""
