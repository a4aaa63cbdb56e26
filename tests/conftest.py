"""Shared test settings.

Hypothesis's per-example deadline is off by default: on a loaded or
throttled machine an example can take twice as long as usual, and a
deadline would then fail a correct test.
"""

from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.load_profile("default")
