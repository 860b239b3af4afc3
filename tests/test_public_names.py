import re
from pathlib import Path

import fockmoments

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_public_names():
    """The backquoted names of the list under README's "Public names" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    items = section.split("\n- ", 1)[1]
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", items)


def test_readme_lists_exactly_the_public_names():
    names = _readme_public_names()
    assert len(names) == len(set(names)), "a name is listed twice"
    assert set(names) == set(fockmoments.__all__)
    assert len(fockmoments.__all__) == len(set(fockmoments.__all__))
    for name in names:
        assert hasattr(fockmoments, name), name
