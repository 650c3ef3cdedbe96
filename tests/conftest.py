"""One hypothesis profile for the whole suite: the same examples on every
run, no deadline, and no example database written to disk."""

from hypothesis import settings

settings.register_profile("rkhskit", derandomize=True, deadline=None, database=None)
settings.load_profile("rkhskit")
