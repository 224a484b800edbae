"""Only ``BACKEND``: ``host_info`` in ``perfbench/worker.py`` imports it; it goes with ROADMAP item 4's benchmark change."""

BACKEND = "python"
