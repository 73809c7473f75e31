"""The Monte-Carlo command lines print the bytes recorded in golden.json.

A digest that changes on purpose is rewritten with `python3 tests/golden.py`,
and the change that moves it lists the invocation in CHANGES.md.
"""
import json

import numpy as np
import pytest

import golden


@pytest.mark.parametrize("threads", ["1", "2"])
def test_monte_carlo_stdout_matches_the_golden_digests(monkeypatch, threads):
    monkeypatch.setenv("MAGNILAB_THREADS", threads)
    with open(golden.MANIFEST) as f:
        manifest = json.load(f)
    got = golden.digests()
    changed = [args for args, digest in manifest["digests"].items() if got.get(args) != digest]
    assert set(got) == set(manifest["digests"])
    assert not changed, (f"stdout changed (recorded with numpy {manifest['numpy']} on "
                         f"{manifest['simd']}, now {np.__version__} on {golden.simd()}): "
                         + "; ".join(changed))
