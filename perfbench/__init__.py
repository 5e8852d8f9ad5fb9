"""The daig benchmark; run ``perfbench/run.py``."""
