"""Every error type has a raiser."""

import inspect
import re
from pathlib import Path

from vidspec import errors


def test_every_error_is_named_outside_errors_module():
    """Each class in ``errors`` other than the base ``VidspecError`` is named
    in another module of the package, so no error type outlives its last
    raiser."""
    package = Path(errors.__file__).parent
    source = "\n".join(
        path.read_text() for path in sorted(package.glob("*.py")) if path.name != "errors.py"
    )
    defined = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__ and name != "VidspecError"
    ]
    unused = [name for name in defined if not re.search(rf"\b{name}\b", source)]
    assert defined and not unused
