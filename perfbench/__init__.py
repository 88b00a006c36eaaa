"""Repository benchmark harness (see ``run.py``)."""
