"""A deterministic hypothesis profile: the same examples on every run and
no per-example deadline, so property tests neither flake nor time out on
a slow or busy machine."""

try:
    from hypothesis import settings
except ModuleNotFoundError:
    pass
else:
    settings.register_profile(
        "deterministic", derandomize=True, deadline=None, max_examples=60
    )
    settings.load_profile("deterministic")
