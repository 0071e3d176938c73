"""Shared pytest set-up.

The ``ci`` hypothesis profile draws the same examples on every run and
prints the reproduction blob of a failure, so a property-test failure in
CI reproduces locally with ``--hypothesis-profile=ci``.  Without the flag
the default profile applies.  hypothesis is an optional test dependency;
its tests skip when it is missing.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
