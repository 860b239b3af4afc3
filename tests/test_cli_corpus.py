"""Replay the CLI corpus: the command lines whose output must not change.

Each line of ``cli_corpus.jsonl`` holds an argv with the exit code,
stdout, stderr and files that ``cli.main`` gave for it when the corpus
was recorded.  An output of up to ``SHORT`` bytes is stored whole, as
its UTF-8 text, and a longer one as ``{"sha256": ..., "length": ...}``.
``record_cli_corpus.py`` rewrites the file.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from fockmoments import cli

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")
SHORT = 1000


class _FailingStream(io.StringIO):
    """A stderr whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def _stored(text):
    data = text.encode("utf-8")
    if len(data) <= SHORT:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}


def run_argv(argv, stderr="open"):
    """``cli.main(argv)`` in a new empty directory with COLUMNS=80, stderr
    open, ``None`` or failing: its exit code and its outputs, stored."""
    out, err = io.StringIO(), io.StringIO()
    sink = {"open": err, "none": None, "failing": _FailingStream()}[stderr]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
        os.chdir(tmp)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
        files = {
            path.relative_to(tmp).as_posix(): _stored(path.read_text(encoding="utf-8"))
            for path in sorted(Path(tmp).rglob("*")) if path.is_file()
        }
    return {"argv": argv, "code": code, "stdout": _stored(out.getvalue()),
            "stderr": _stored(err.getvalue()), "files": files}


def load():
    with open(CORPUS, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _changed(cases, stderr, keys):
    """The argvs whose replay differs from the record in any of keys."""
    changed = []
    for case in cases:
        now = run_argv(case["argv"], stderr)
        if any(now[k] != case[k] for k in keys):
            changed.append(case["argv"])
    return changed


def test_corpus_replays_unchanged():
    cases = load()
    assert len(cases) > 300
    assert _changed(cases, "open", ("code", "stdout", "stderr", "files")) == []


# a note, a warning, an exit 2, an exit 3, and a run with no diagnostic
DIAGNOSED = [
    ["converge", "--N", "0", "--orders", "2", "--plot", "p.svg"],
    ["reconstruct", "--N", "0", "--K", "2", "--format", "json"],
    ["moments", "--N", "x"],
    ["reconstruct", "--N", "5", "--K", "6"],
    ["selfcheck", "--fast"],
]


def test_closed_or_failing_stderr_changes_no_result():
    # Python sets sys.stderr to None when fd 2 is closed at start.  A
    # diagnostic that cannot be written is dropped; argparse, which only
    # argvs outside the canonical form reach, writes its own messages
    cases = [case for case in load() if cli._parse_canonical(case["argv"])]
    assert len(cases) > 200
    stderr_of = {tuple(case["argv"]): case["stderr"] for case in cases}
    assert [bool(stderr_of[tuple(argv)]) for argv in DIAGNOSED] == [True] * 4 + [False]
    for stderr in ("none", "failing"):
        assert _changed(cases, stderr, ("code", "stdout", "files")) == [], stderr
