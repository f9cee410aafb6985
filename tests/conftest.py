"""Session set-up shared by the test modules."""

import warnings

# hypothesis reports a failing example from pytest's report hook, where it
# imports its patch writer, and with it libcst.  That import raises
# mypy_extensions' DeprecationWarning for TypedDict; under `-W error` the
# raise ends the session in INTERNALERROR and the example is never printed.
# Imported here first, with only that warning ignored, the module is loaded
# before any hook asks for it.  Without libcst the hook skips the patch.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
