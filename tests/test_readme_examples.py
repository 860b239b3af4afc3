import ast
import functools
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fockmoments.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """(argv, printed lines) of each ``$ fockmoments`` block in README's CLI
    section whose output is shown in full."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        command, _, shown = block.partition("\n")
        if not command.startswith("$ fockmoments ") or "..." in shown:
            continue
        examples.append((shlex.split(command)[2:], shown))
    return examples


EXAMPLES = _cli_examples()


def test_readme_shows_every_printing_command():
    commands = sorted({argv[0] for argv, _ in EXAMPLES})
    assert commands == ["classical", "converge", "moments", "selfcheck"]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example_output(capsys, argv, shown):
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


@functools.cache
def _other_interpreters():
    """Each python3.10 .. python3.13 on PATH that starts, other than this
    interpreter's minor version; looked for once."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if minor == sys.version_info.minor or exe is None:
            continue
        try:
            started = subprocess.run([exe, "-c", ""], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if started.returncode == 0:
            found.append(exe)
    return found


def _run_module(exe, argv):
    """(exit code, stdout, stderr) of `exe -m fockmoments argv` run from
    this source tree."""
    env = {
        **os.environ,
        "PYTHONPATH": str(README.parent / "src"),
        "PYTHONWARNINGS": "error",
    }
    done = subprocess.run(
        [exe, "-m", "fockmoments", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_readme_examples_under_other_interpreters():
    # pyproject.toml requires Python >= 3.10: replay the examples as
    # `-m fockmoments` from this source tree under each other version here
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 .. python3.13 starts")
    for exe in interpreters:
        for argv, shown in EXAMPLES:
            assert _run_module(exe, argv) == (0, shown, ""), (exe, argv)


# README shows `reconstruct` elided, so these are checked against this
# interpreter: the default odd K, an even K, q = 1/2, an explicit list and
# the density
RECONSTRUCT_ARGVS = [
    ["reconstruct", "--N", "5"],
    ["reconstruct", "--N", "5", "--K", "70", "--scale", "canonical"],
    ["reconstruct", "--jacobi", "q=1/2", "--N", "3", "--K", "64", "--format", "csv"],
    ["reconstruct", "--jacobi", "explicit:1,3/2,2,5/2,3,7/2,4,9/2,5", "--N", "2",
     "--K", "10", "--format", "json"],
    ["reconstruct", "--N", "4", "--K", "40", "--density"],
]


# a --jacobi JSON value past the recursion limit of 3.11's json.loads,
# which 3.13's parses
DEEP_JSON_ARGVS = [
    ["moments", "--jacobi", f'{{"kind":{"[" * depth + "]" * depth}}}', "--N", "1",
     "--orders", "2"]
    for depth in (1100, 5000)
]


# decimal exponents above 10^6, refused before Fraction expands them
HUGE_EXPONENT_ARGVS = [
    ["moments", "--N", "2", "--orders", "0", "--scale", "1e2000000"],
    ["moments", "--jacobi", "explicit:1,2e+0001000001", "--N", "1", "--orders", "2"],
    ["moments", "--N", "2", "--orders", "2", "--scale", "1e" + "9" * 5000],
]


def _replay_under_other_interpreters(capsys, argvs):
    """Each argv's exit code, stdout and stderr under every other
    interpreter equal this one's."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 .. python3.13 starts")
    for argv in argvs:
        code = main(argv)
        here = capsys.readouterr()
        for exe in interpreters:
            assert _run_module(exe, argv) == (code, here.out, here.err), (exe, argv)


def test_reconstruct_under_other_interpreters(capsys):
    _replay_under_other_interpreters(capsys, RECONSTRUCT_ARGVS)


def test_deep_json_under_other_interpreters(capsys):
    _replay_under_other_interpreters(capsys, DEEP_JSON_ARGVS)


def test_huge_exponents_under_other_interpreters(capsys):
    _replay_under_other_interpreters(capsys, HUGE_EXPONENT_ARGVS)


# the pure-Python test packages this interpreter lends the others, and the
# test files that need nothing else
BORROWED = ("pytest", "_pytest", "pluggy", "iniconfig", "packaging", "hypothesis",
            "sortedcontainers", "attr", "attrs", "py")
NUMPY_FREE_TESTS = ("tests/test_fock.py", "tests/test_public_names.py",
                    "tests/test_cli.py")


def test_numpy_free_tests_under_other_interpreters(tmp_path):
    # run those files under each other version, with the borrowed packages
    # linked into one directory on its path; no bytecode is written, since
    # the links lead into this interpreter's site-packages
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 .. python3.13 starts")
    import hypothesis
    import importlib.util

    modules = list(BORROWED)
    for name in BORROWED:
        spec = importlib.util.find_spec(name)
        assert spec is not None, f"{name} is not installed for {sys.executable}"
        origin = Path(spec.origin)
        source = origin.parent if origin.name == "__init__.py" else origin
        (tmp_path / source.name).symlink_to(source)
    for hook in Path(hypothesis.__file__).parent.parent.glob("_hypothesis_*.py"):
        (tmp_path / hook.name).symlink_to(hook)
        modules.append(hook.stem)
    # pytest loads hypothesis' plugin itself, as its entry point does here;
    # imported before, it would count as slow plugin code
    modules.remove("_hypothesis_pytestplugin")
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    # import each borrowed module, naming any that fails, then run the tests
    script = (
        "import importlib, sys\n"
        "failed = []\n"
        "for name in sys.argv[1:]:\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failed.append(f'{name} ({type(exc).__name__}: {exc})')\n"
        "if failed:\n"
        "    sys.exit('cannot import ' + ', '.join(failed))\n"
        "import pytest\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', '-p',\n"
        f"                     '_hypothesis_pytestplugin', *{NUMPY_FREE_TESTS!r}]))\n"
    )
    for exe in interpreters:
        done = subprocess.run([exe, "-c", script, *modules], capture_output=True,
                              text=True, env=env, cwd=README.parent, timeout=300)
        assert done.returncode == 0, (exe, done.stdout[-3000:], done.stderr[-3000:])


def _library_block():
    """The code of the ``python`` block in README's Library section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, flags=re.S)[1]


def _check_exact_comment(value, comment):
    """Assert that value equals the exact value the comment opens with;
    return False when it opens with none."""
    literal = re.match(r"Fraction\(\d+, \d+\)|\[[\d/, ]+\]|\([\d/, ]+\)", comment)
    if literal:
        # p/q in a list or a pair is a rational, not a float division
        source = re.sub(r"(\d+)/(\d+)", r"Fraction(\1, \2)", literal[0])
        assert value == eval(source, {"Fraction": Fraction})
        return True
    return False


def test_readme_library_example_values():
    # run the block's statements in order in one namespace, and check each
    # expression whose comment gives an exact value
    block = _library_block()
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        comment = lines[node.lineno - 1].partition("#")[2].strip()
        checked += _check_exact_comment(value, comment)
    assert checked == 6
