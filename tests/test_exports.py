"""Every name emdsteg exports must exist.

`__all__` is a list of strings, so a deleted or renamed function would
otherwise linger there until a star import fails.
"""

import emdsteg


def test_star_import():
    # the star import raises AttributeError for a name that does not resolve
    namespace = {}
    exec("from emdsteg import *", namespace)
    assert set(emdsteg.__all__) <= namespace.keys()
