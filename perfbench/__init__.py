"""End-to-end and per-layer benchmark of the config -> certified policy ->
served decision pipeline. Entry point: ``python3 perfbench/run.py``."""
