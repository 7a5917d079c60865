"""Tree search over textual agent trajectories with pluggable backends."""
