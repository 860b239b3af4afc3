"""fockmoments benchmark: real CLI invocations, one at a time, on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-standard --seed 1 --seconds 30 --trace 0

--trace 0 times `python3 -m fockmoments ...` subprocesses end to end, in
a closed loop with one client (the next call starts when the previous
one has exited), and prints the end-to-end metrics.  Every call runs
between two runs of reference.py, a fixed program, and its time is
reported at the reference speed: divided by the reference's time and
multiplied by REFERENCE_S.  That cancels the host's speed drift; the
seconds as read are printed on an info line.  --trace 1 runs the
same operations in process, alternating untraced and traced rounds, and
prints the per-layer metrics.  The last stdout line is one JSON object;
a detailed record (environment stamp, every operation, spans) is
written to .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
FAULT_ENV = "FOCKMOMENTS_SELFCHECK_FAULT"
# setup_s samples `--version` before every SETUP_EVERY-th operation, so its
# median spans the whole timed loop rather than one burst at the start
SETUP_EVERY = 4
# Every timed run makes at least this many rounds, so the tail percentile
# below always has ten samples beyond it and does not move with speed, and
# each slot's median latency has at least three samples to choose from.
MIN_ROUNDS = 3
# End-to-end times are reported at the speed where reference.py takes this
# long: its median over 80 runs on the 2-vCPU Xeon host the benchmark was
# built on.  A fixed constant, so it only sets the scale of the figures.
REFERENCE_S = 0.112
# No further round starts after this, whatever --seconds says.
HARD_STOP_S = 140.0

END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb")
PER_LAYER = (
    "moments.tridiagonal_return.calls", "moments.tridiagonal_return.s",
    "moments.tridiagonal_return.cells", "moments.tridiagonal_return.result_bits_max",
    "moments.moment_by_words.calls", "moments.moment_by_words.s", "moments.moment_by_words.words",
    "fock.enumerate_balanced_words.s", "fock.enumerate_balanced_words.words",
    "moments.convergence_table.self_s", "moments.convergence_csv.s",
    "spectral.eigendecompose.calls", "spectral.eigendecompose.s",
    "spectral.eigendecompose.dim_sum", "spectral.eigendecompose.dim2_sum",
    "spectral.density_cdf.s", "spectral.density_cdf.points",
    "spectral.density_spectrum_sup.self_s", "spectral.reconstruct_state_measure.self_s",
    "spectral.ks_distance_to_arcsine.s", "spectral.moment_relerr_max",
    "laws.validate_moments.calls", "laws.validate_moments.s", "laws.validate_moments.hankel_dim_max",
    "selfcheck.run_selfcheck.self_s", "selfcheck.checks",
    "cli.config_from_args.s", "cli.self_s", "cli.output_bytes",
    "svgplot.line_plot.s", "svgplot.line_plot.bytes",
    "setup.interpreter_s", "setup.import_s", "trace.inprocess_wall_s", "trace.overhead_ratio",
)
COUNT_METRICS = {
    "moments.tridiagonal_return.cells", "moments.tridiagonal_return.result_bits_max",
    "moments.moment_by_words.words", "fock.enumerate_balanced_words.words",
    "spectral.eigendecompose.dim_sum", "spectral.eigendecompose.dim2_sum",
    "spectral.density_cdf.points", "laws.validate_moments.hankel_dim_max",
    "selfcheck.checks", "svgplot.line_plot.bytes",
}


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith(("ratio", "relerr_max")):
        return "ratio"
    return "count"


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.ops = workloads.build(workload, seed, lambda i: str(self.tmp / f"slot{i}.svg"))
        self.env = dict(os.environ)
        self.env.pop(FAULT_ENV, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.table = oracle.MomentTable()
        self.seqs: dict[str, oracle.Seq] = {}
        self.records: list[dict] = []
        self.silent_wrong = 0
        self.notes: list[str] = []
        self.relerr_max = 0.0

    # -- expected outputs -------------------------------------------------

    def prepare(self, ops: list[workloads.Op]) -> list[tuple[str | None, int]]:
        """Exact moments for every op, then the expected stdout per op."""
        table = self.table
        for op in ops:
            if op.seq is None:
                continue
            self.seqs[op.seq.spec] = op.seq
            for n in op.states:
                if op.command == "reconstruct":
                    top = min(2 * (op.dim - 1 - n), oracle.SPECTRAL_CHECK_ORDER)
                else:
                    top = max(op.orders)
                table.need(op.seq, n, top)
        expected = []
        for op in ops:
            if op.command == "moments":
                expected.append((oracle.expected_moments(table, op), 0))
            elif op.command == "converge":
                expected.append(oracle.expected_converge(table, op))
            else:
                expected.append((None, 0))
        return expected

    def cross_check_oracle(self) -> None:
        """Check the oracles against the program's word engine (public API) on low orders."""
        from fockmoments import JacobiSequence, moment_by_words

        programs = {}
        for spec, seq in self.seqs.items():
            if seq.kind == "standard":
                programs[spec] = JacobiSequence.standard()
            elif seq.kind == "q":
                programs[spec] = JacobiSequence.q_deformed(seq.q)
            else:
                programs[spec] = JacobiSequence.explicit(list(seq.omegas))

        def words(spec, n, order):
            return moment_by_words(programs[spec], n, order)

        for problem in oracle.cross_check(self.table, self.seqs, words):
            self.silent_wrong += 1
            self.notes.append("oracle cross-check: " + problem)

    # -- checking one result ----------------------------------------------

    def check(self, op, expected, rc: int, out: str) -> tuple[str | None, dict]:
        extra: dict = {}
        if rc != 0:
            return f"exit code {rc}", extra
        text, series = expected
        if op.command in ("moments", "converge"):
            if out != text:
                return "output differs from the oracle", extra
        elif op.command == "reconstruct":
            problem, worst = oracle.check_reconstruct(self.table, op, out)
            extra["moment_relerr_max"] = worst
            self.relerr_max = max(self.relerr_max, worst)
            if problem:
                return problem, extra
            series = 2 + op.density
        else:
            problem, checks = oracle.check_selfcheck(out)
            extra["checks"] = checks
            if problem:
                return problem, extra
        if op.plot:
            try:
                drawn = oracle.svg_series(Path(op.plot).read_text(encoding="utf-8"))
            except (OSError, oracle.ET.ParseError) as exc:
                return f"plot: {exc}", extra
            if drawn != series:
                return f"plot has {drawn} series, expected {series}", extra
        return None, extra

    def record(self, slot: int, rnd: int, op, expected, rc, out, err, latency, **more) -> None:
        problem, extra = self.check(op, expected, rc, out)
        if problem and rc == 0:
            self.silent_wrong += 1
        if problem:
            extra["stderr"] = err.strip()[-300:]
        self.records.append({"slot": slot, "round": rnd, "argv": _short(op.argv()), "rc": rc,
                             "latency_s": latency, "ok": problem is None, "problem": problem,
                             **extra, **more})

    # -- running -----------------------------------------------------------

    def __enter__(self) -> "Bench":
        self.runner = subprocess.Popen([sys.executable, str(HERE / "runner.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True, cwd=ROOT, env=self.env)
        return self

    def __exit__(self, *exc) -> None:
        self.runner.stdin.close()  # the runner exits at end of input
        self.runner.wait()

    def subprocess_cli(self, argv: list[str]) -> tuple[int, str, str, float, int]:
        """Run `python3 argv` once, through runner.py.

        Returns (rc, stdout, stderr, seconds, max RSS in KiB).
        """
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self.runner.stdin.write(json.dumps(request) + "\n")
        self.runner.stdin.flush()
        reply = json.loads(self.runner.stdout.readline())
        return (reply["rc"], out.read_text("utf-8", "replace"), err.read_text("utf-8", "replace"),
                reply["seconds"], reply["maxrss_kib"])

    def median_wall(self, argv: list[str], repeats: int) -> float:
        self.subprocess_cli(argv)  # compiles bytecode caches on a fresh checkout
        return statistics.median(self.subprocess_cli(argv)[3] for _ in range(repeats))

    def clear_plots(self, op) -> None:
        if op.plot:
            Path(op.plot).unlink(missing_ok=True)

    def reference(self) -> float:
        return self.subprocess_cli([str(HERE / "reference.py")])[3]

    def round_subprocess(self, rnd: int, expected, setup: list[tuple[float, float]]) -> float:
        """One round of the list; each call sits between two reference runs.

        A call's time at the reference speed is its time divided by the
        mean of the two reference times around it, times REFERENCE_S.
        setup gets (seconds, seconds at the reference speed) per sample.
        """
        total = 0.0
        before = self.reference()
        for slot, op in enumerate(self.ops):
            version = None
            if slot % SETUP_EVERY == 0:
                version = self.subprocess_cli(["-m", "fockmoments", "--version"])[3]
            self.clear_plots(op)
            rc, out, err, latency, rss = self.subprocess_cli(["-m", "fockmoments", *op.argv()])
            after = self.reference()
            scale = REFERENCE_S / ((before + after) / 2)
            if version is not None:
                setup.append((version, version * scale))
            self.record(slot, rnd, op, expected[slot], rc, out, err, latency, rss_kib=rss,
                        ref_s=(before + after) / 2, at_ref_s=latency * scale)
            before = after
            total += latency
        return total

    def round_inprocess(self, rnd: int, expected, cli, tracer=None) -> tuple[float, int]:
        total, out_bytes = 0.0, 0
        for slot, op in enumerate(self.ops):
            self.clear_plots(op)
            if tracer is not None:
                tracer.op = f"{rnd}:{slot}"
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(op.argv())
                except Exception:  # a traceback and exit code 1 in the subprocess case
                    traceback.print_exc(file=err)
                    rc = 1
            latency = time.perf_counter() - start
            text = out.getvalue()
            out_bytes += len(text.encode())
            self.record(slot, rnd, op, expected[slot], rc, text, err.getvalue(), latency,
                        traced=tracer is not None)
            total += latency
        return total, out_bytes

    def keep_going(self, started: float, walls: list[float]) -> bool:
        """Start another round only if it should end within the time budget."""
        elapsed = time.perf_counter() - started
        return elapsed + walls[-1] <= min(self.seconds, HARD_STOP_S)

    # -- the two modes ----------------------------------------------------

    def end_to_end(self, expected) -> dict:
        self.subprocess_cli(["-m", "fockmoments", "--version"])  # compiles bytecode caches
        self.reference()
        setup, walls, spans = [], [], []
        started = time.perf_counter()
        while len(walls) < MIN_ROUNDS or self.keep_going(started, spans):
            begin = time.perf_counter()
            walls.append(self.round_subprocess(len(walls), expected, setup))
            spans.append(time.perf_counter() - begin)  # with the reference and setup calls
        pct = 100.0 * (1 - 10 / (MIN_ROUNDS * len(self.ops)))

        def summarize(key: str) -> tuple[float, float, float]:
            """(sum over slots of each slot's median, median, tail percentile)."""
            samples = [r[key] for r in self.records]
            per_slot = [statistics.median(r[key] for r in self.records if r["slot"] == slot)
                        for slot in range(len(self.ops))]
            return math.fsum(per_slot), statistics.median(samples), percentile(samples, pct)

        at_ref, raw = summarize("at_ref_s"), summarize("latency_s")
        self.summary = {"rounds": len(walls), "round_walls_s": walls,
                        "setup_samples_s": [raw_s for raw_s, _ in setup],
                        "slots": len(self.ops), "tail_percentile": pct,
                        "tail_samples": len(self.records),
                        "reference_s": statistics.median(r["ref_s"] for r in self.records),
                        "seconds": dict(zip(("setup_s", "wall_s", "op_p50_s", "op_tail_s"),
                                            (statistics.median(raw_s for raw_s, _ in setup), *raw)))}
        return {
            "setup_s": statistics.median(at_s for _, at_s in setup),
            "wall_s": at_ref[0],
            "op_p50_s": at_ref[1],
            "op_tail_s": at_ref[2],
            "peak_rss_mb": max(r["rss_kib"] for r in self.records) / 1024,
        }

    def per_layer(self, expected) -> tuple[dict, tracing.Tracer]:
        interpreter = self.median_wall(["-c", "pass"], 5)
        imported = self.median_wall(["-c", "import fockmoments.cli"], 5)
        importtime = self.subprocess_cli(["-X", "importtime", "-c", "import fockmoments.cli"])
        self.importtime = importtime_top(importtime[2])
        import fockmoments
        import fockmoments.cli as cli

        tracer = tracing.Tracer()
        plain, traced, layers = [], [], []
        started = time.perf_counter()
        warmup = self.round_inprocess(0, expected, cli)[0]  # checked, not timed
        while not traced or self.keep_going(started, [plain[-1] + traced[-1]]):
            rnd = 1 + 2 * len(traced)
            plain.append(self.round_inprocess(rnd, expected, cli)[0])
            tracer.install(fockmoments)
            tracer.reset_counts()
            first = len(tracer.spans)
            try:
                wall, out_bytes = self.round_inprocess(rnd + 1, expected, cli, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(layer_metrics(tracing.summarize(tracer.spans, first), tracer.counts, out_bytes))
        metrics = {
            "spectral.moment_relerr_max": self.relerr_max,
            "setup.interpreter_s": interpreter,
            "setup.import_s": imported - interpreter,
            "trace.inprocess_wall_s": statistics.median(plain),
            "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
        }
        for name in PER_LAYER:
            if name in metrics:
                continue
            values = [m.get(name, 0) for m in layers]
            if name in COUNT_METRICS or name.endswith(".calls") or name == "cli.output_bytes":
                if len(set(values)) > 1:
                    self.silent_wrong += 1
                    self.notes.append(f"count {name} differs between rounds: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        selfs = tracing.summarize(tracer.spans)
        total_self = sum(v["self_s"] for v in selfs.values())
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1]["self_s"])
        self.summary = {"rounds": len(traced), "warmup_wall_s": warmup,
                        "inprocess_walls_s": plain, "traced_walls_s": traced,
                        "self_time_share": {k: v["self_s"] / total_self for k, v in ranked[:8]}}
        return metrics, tracer

    def probe(self) -> dict:
        """Known-defect probe (exact-deformed only); outside the timed loop."""
        ops = workloads.known_defect_probe(self.seed)
        expected = self.prepare(ops)
        results = []
        for op, exp in zip(ops, expected):
            rc, out, err, _, _ = self.subprocess_cli(["-m", "fockmoments", *op.argv()])
            problem, _ = self.check(op, exp, rc, out)
            results.append({"argv": _short(op.argv()), "rc": rc, "problem": problem,
                            "stderr": err.strip()[-200:]})
        return {"ops": len(results), "failed": sum(r["problem"] is not None for r in results),
                "results": results}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile.

    The timed loop uses the highest percentile that leaves ten samples
    beyond it after MIN_ROUNDS rounds; more rounds only add samples.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered) - 1e-9) - 1)]


def layer_metrics(spans: dict, counts: dict, out_bytes: int) -> dict:
    m = {}
    for name, entry in spans.items():
        m[f"{name}.calls"] = entry["calls"]
        m[f"{name}.s"] = entry["s"]
        m[f"{name}.self_s"] = entry["self_s"]
    for name, values in counts.items():
        for key, value in values.items():
            if key != "calls":
                m[f"{name}.{key}"] = value
    m["selfcheck.checks"] = counts.get("selfcheck.run_selfcheck", {}).get("checks", 0)
    m["cli.self_s"] = sum(e["self_s"] for n, e in spans.items() if n.startswith("cli."))
    m["cli.output_bytes"] = out_bytes
    return m


def importtime_top(stderr: str, count: int = 12) -> list[dict]:
    rows = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            rows.append({"module": match.group(4), "depth": (len(match.group(3)) - 1) // 2,
                         "self_us": int(match.group(1)), "cumulative_us": int(match.group(2))})
    return sorted(rows, key=lambda r: -r["cumulative_us"])[:count]


def _short(argv: list[str]) -> str:
    text = " ".join(argv)
    return text if len(text) <= 160 else text[:150] + " ..."


def stamp(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_revision": revision, "source_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fockmoments" / "__init__.py").is_file():
        print(f"perfbench: no fockmoments sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop(FAULT_ENV, None)
    import fockmoments

    if Path(fockmoments.__file__).resolve().parent != SRC / "fockmoments":
        print(f"perfbench: imported fockmoments from {fockmoments.__file__}", file=sys.stderr)
        return 2

    info = stamp(args)
    with Bench(args.workload, args.seed, args.seconds) as bench:
        expected = bench.prepare(bench.ops)
        bench.cross_check_oracle()
        tracer = None
        if args.trace:
            metrics, tracer = bench.per_layer(expected)
            names = PER_LAYER
        else:
            metrics = bench.end_to_end(expected)
            names = END_TO_END
        probe = bench.probe() if args.workload == "exact-deformed" else None
    info["loadavg_end"] = os.getloadavg()

    attempted = len(bench.records)
    failed = sum(not r["ok"] for r in bench.records)
    result = {
        "correct": bench.silent_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names},
    }
    detail = {"stamp": info, "result": result, "summary": bench.summary, "notes": bench.notes,
              "fail_ratio": failed / attempted, "known_defect_probe": probe,
              "operations": bench.records}
    if tracer is not None:
        detail["importtime_top"] = bench.importtime
        detail["span_fields"] = ["name", "start", "end", "parent", "op"]
        detail["spans"] = tracer.spans
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail) + "\n", encoding="utf-8")

    print(f"perfbench: {args.workload} seed={args.seed} ops={attempted} failed={failed} "
          f"rounds={bench.summary['rounds']} detail={path.relative_to(ROOT)}")
    if tracer is not None:
        top = next(iter(bench.summary["self_time_share"].items()))
        print(f"perfbench: dominant self-time layer {top[0]} ({100 * top[1]:.1f}% of traced self time)")
    if not args.trace:
        seconds = bench.summary["seconds"]
        print(f"perfbench: as read, setup {seconds['setup_s']:.4f} s, wall {seconds['wall_s']:.4f} s, "
              f"op p50 {seconds['op_p50_s']:.4f} s, op tail {seconds['op_tail_s']:.4f} s; "
              f"reference.py {bench.summary['reference_s']:.4f} s (metrics scale it to {REFERENCE_S} s)")
    if probe is not None:
        print(f"perfbench: known-defect probe, {probe['failed']} of {probe['ops']} "
              f"minimal-length explicit ops fail")
    for note in bench.notes[:5]:
        print(f"perfbench: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
