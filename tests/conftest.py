"""Shared test configuration.

The tier-1 suite runs in CI under both transfer-operator bindings
(``REPRO_BACKEND=msg`` and ``REPRO_BACKEND=shmem``).  Semantics tests
pass on both; tests that pin message-passing *timing* (makespans, golden
figures, deadlock-report text, trace event kinds) are marked
``msg_timing`` and skipped on the shared-address binding, where the same
programs legally finish at different virtual times.

Hypothesis tests draw the same examples on every run (the ``deterministic``
profile, loaded by default), so whether tier-1 passes does not depend on
chance.  ``--hypothesis-profile=random`` draws fresh examples; CI runs the
hypothesis modules that way as a separate exploration step.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("deterministic")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_BACKEND", "msg") == "msg":
        return
    skip = pytest.mark.skip(
        reason="pins message-passing timing/diagnostics; "
        "REPRO_BACKEND selects another binding"
    )
    for item in items:
        if "msg_timing" in item.keywords:
            item.add_marker(skip)
