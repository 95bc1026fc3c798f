from hypothesis import settings

# Property tests replay the same examples on every run and stay cheap.
settings.register_profile("bestarm", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("bestarm")
