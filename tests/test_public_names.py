import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fockmoments

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = ("cli", "fock", "laws", "moments", "selfcheck", "spectral", "svgplot")


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
    assert len(names) == 32
    assert len(fockmoments.__all__) == len(set(fockmoments.__all__))
    for name in names:
        assert hasattr(fockmoments, name), name


def test_star_import_binds_each_name_to_its_definition(monkeypatch):
    for name in fockmoments.__all__:  # resolve each name afresh
        monkeypatch.delattr(fockmoments, name, raising=False)
    namespace = {}
    exec("from fockmoments import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fockmoments.__all__)
    for name, value in namespace.items():
        homes = [
            getattr(fockmoments, module)
            for module in ("fock", "laws", "moments", "spectral")
            if hasattr(getattr(fockmoments, module), name)
        ]
        assert homes and all(getattr(m, name) is value for m in homes), name


def test_submodules_and_unknown_names(monkeypatch):
    import fockmoments.spectral

    spectral = fockmoments.spectral
    monkeypatch.delattr(fockmoments, "spectral")  # resolve it afresh
    assert getattr(fockmoments, "spectral") is spectral
    with pytest.raises(AttributeError):
        getattr(fockmoments, "no_such_name")
    for name in ("EigensolverFailure", "TruncationTooSmall"):
        assert getattr(fockmoments, name) is getattr(fockmoments.spectral, name)


def test_dir_lists_every_name_and_loads_no_submodule():
    # a fresh interpreter, so that no other test has loaded a submodule
    script = (
        "import json, sys, fockmoments\n"
        "names = dir(fockmoments)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('fockmoments.'))\n"
        "print(json.dumps([names, fockmoments.__all__, loaded]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fockmoments.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    names, public, loaded = json.loads(done.stdout)
    assert set(public) | set(SUBMODULES) <= set(names)
    assert names == sorted(names)
    assert loaded == []
