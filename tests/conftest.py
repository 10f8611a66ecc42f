"""Shared test settings."""

from hypothesis import settings

# Example run times vary with machine load, so no property has a
# per-example deadline.
settings.register_profile("tortb", deadline=None)
settings.load_profile("tortb")
