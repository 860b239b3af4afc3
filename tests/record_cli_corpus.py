"""Rewrite cli_corpus.jsonl, the CLI corpus that test_cli_corpus.py replays.

Run from the repository root:

    PYTHONPATH=src python tests/record_cli_corpus.py            # re-record
    PYTHONPATH=src python tests/record_cli_corpus.py --collect  # gather anew

The default re-records the argvs already in the corpus with the code in
``src``, so after a change ``git diff tests/cli_corpus.jsonl`` shows every
output it moved.  ``--collect`` gathers the argvs first:

- every argv that the tests pass to ``cli.main`` in process (it runs the
  test suite, less this corpus's own test, in process);
- each ``fockmoments`` command line in README;
- the benchmark's four workloads at seed 1;
- ``HAND_MADE`` below.

It keeps each argv that replays in under ``LIMIT`` seconds, so the whole
replay takes a few seconds; the few slower argvs that the tests pass are
checked by their own tests.  ``--help``, its prefixes and ``-h`` are left
out: their bytes differ by Python version, and test_cli.py pins them on
3.11.
"""

import json
import re
import shlex
import sys
import tempfile
import time
from pathlib import Path

from test_cli_corpus import CORPUS, DIAGNOSED, load, run_argv

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 0.1
NINES = "9" * 4300

# Exit 1 is a failing selfcheck suite, which no argv gives on working code.
HAND_MADE = [
    *DIAGNOSED,  # exits 0, 2 and 3, a note and a warning
    ["moments", "--bogus"],  # exit 2 from argparse
    # values past 80 characters, and past the interpreter's digit limit
    ["moments", "--N", "-" + "1" * 4000, "--orders", "2"],
    ["moments", "--scale", "-" + "3" * 4000],
    ["moments", "--jacobi", "explicit:1", "--N", NINES, "--orders", "2"],
    ["classical", "--panels", NINES],
    ["reconstruct", "--N", NINES],
    ["reconstruct", "--N", NINES, "--K", "5"],
]


class _Gather:
    """A pytest plugin that notes each argv passed to ``cli.main``."""

    def __init__(self):
        self.argvs = []

    def pytest_configure(self, config):
        from fockmoments import cli

        real = cli.main
        temp = tempfile.gettempdir()

        def main(argv=None):
            if argv is not None and all(isinstance(t, str) for t in argv):
                # a file under the test's temporary directory, by its name
                self.argvs.append([re.sub(re.escape(temp) + r"/\S*/", "", t)
                                   for t in argv])
            return real(argv)

        cli.main = main


def _from_tests():
    import pytest

    gather = _Gather()
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                 "--ignore", str(Path(__file__).with_name("test_cli_corpus.py"))],
                plugins=[gather])
    return gather.argvs


def _from_readme():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^(?:\$ )?fockmoments (\w.*?)\s*(?:#.*)?$", text, flags=re.M)
    return [shlex.split(line) for line in lines]


def _from_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [op.argv() for name in workloads.WORKLOADS
            for op in workloads.build(name, 1, lambda slot: f"plot{slot}.svg")]


def main(args):
    if args == ["--collect"]:
        found = _from_tests() + _from_readme() + _from_workloads() + HAND_MADE
    elif not args:
        found = [case["argv"] for case in load()]
    else:
        sys.exit(__doc__)
    unique = {json.dumps(argv): argv for argv in found
              if not any(t == "-h" or len(t) > 2 and "--help".startswith(t)
                         for t in argv)}
    cases = []
    for argv in unique.values():
        start = time.perf_counter()
        case = run_argv(argv)
        if not args or time.perf_counter() - start < LIMIT:
            cases.append(json.dumps(case, ensure_ascii=False) + "\n")
    CORPUS.write_text("".join(cases), encoding="utf-8")
    print(f"{len(cases)} argvs written to {CORPUS.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
