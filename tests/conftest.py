"""Hypothesis profiles of the suite.

Tier-1 runs each property test as its @settings say: derandomized, so every run draws
the same examples.  HYPOTHESIS_PROFILE=deep searches wider, for a scheduled or manual
run:

    HYPOTHESIS_PROFILE=deep python -m pytest -m hypothesis [--hypothesis-seed N]

Each property test then draws ten times its examples from a fresh seed (or N), with no
example database, and the header prints the seed, which replays the run.
"""

import os
import random

from hypothesis import core, is_hypothesis_test, settings

settings.register_profile("deep", derandomize=False, database=None, print_blob=True)
DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "deep"
if DEEP:
    settings.load_profile("deep")


def pytest_configure(config):
    if DEEP and config.getoption("hypothesis_seed") is None:
        config.option.hypothesis_seed = str(random.SystemRandom().randrange(2**32))
        core.global_force_seed = int(config.option.hypothesis_seed)


def pytest_report_header(config):
    if DEEP:
        return f"deep hypothesis profile: --hypothesis-seed {config.getoption('hypothesis_seed')}"


def pytest_collection_modifyitems(items):
    # A test's own @settings outrank the profile, so the deep search rewrites them.
    if not DEEP:
        return
    for test in {item.obj for item in items if is_hypothesis_test(getattr(item, "obj", None))}:
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, derandomize=False, max_examples=10 * own.max_examples)
