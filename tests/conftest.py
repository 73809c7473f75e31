"""Hypothesis profiles.

``tier1`` (the default) derandomizes every property, so each run of the
suite sees the same examples and a failure reproduces.  ``explore`` draws
fresh examples on each run, for hunting new faults:

    PYTHONPATH=src python -m pytest tests --hypothesis-profile explore

Inputs that ever failed are pinned with ``@example`` on their property.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
