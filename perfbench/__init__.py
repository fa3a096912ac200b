"""The repository benchmark (see ``perfbench/run.py``)."""
