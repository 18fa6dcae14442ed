"""Benchmark of the nildual command line on its built-in examples.

    python3 perfbench/run.py --workload {generate,verify,reuse} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
`src/`. Set-up runs in fresh child interpreters, which also time it. Every
iteration then calls `nildual.cli.main(argv)` in this process for each of
the workload's commands, in an order drawn from the seed, and checks the
outputs. Times are rescaled to reference seconds by speed ticks that run
in this process (see calibrate.py). `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced iterations
and reports the per-layer metrics. The last line of standard output is the
JSON result; the line before it is the run record (machine, samples,
problems).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
if not (SRC / "nildual" / "cli.py").is_file():
    sys.exit(f"no nildual sources under {SRC}")
sys.path.insert(0, str(SRC))
# One BLAS thread, so that the program's times do not hang on the load of
# the host's second core. Set-up children inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
from calibrate import Ticker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

EXAMPLES = ("paraboloid", "smyth-2")
# `reuse` passes these flags to `dual` again: the run-directory hash covers
# every flag, so any difference would miss the frame cache set-up wrote
GENERATE_FLAGS = ["--lambda", "1,exp:pi/3", "--allow-reflection"]
# smyth-2 runs on its 101x101 verify grid; the paraboloid takes the full
# battery (duality and self-duality) at both parameters
VERIFY_RUNS = (("paraboloid", "1,exp:pi/3"), ("smyth-2", "1"))
# A set-up child starts a fresh interpreter, imports the CLI and runs the
# workload's set-up commands (argv lists, as JSON)
SETUP_CHILD = """import json, sys
sys.path.insert(0, sys.argv[1])
from nildual.cli import main
for argv in json.loads(sys.argv[2]):
    if main(argv) != 0:
        sys.exit("set-up failed: " + " ".join(argv))
"""


def import_cli():
    """nildual.cli from this checkout's sources, never an installed copy."""
    import nildual.cli
    if not Path(nildual.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"nildual was imported from {nildual.cli.__file__}")
    return nildual.cli


def call_cli(main, argv):
    """(exit code, captured stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


def run_dir(out, example):
    """The run directory `generate` wrote for `example` under `out`."""
    found = sorted(Path(out).glob(f"example_{example}_*"))
    if len(found) != 1:
        raise FileNotFoundError(f"{len(found)} run directories for {example} "
                                f"under {out}")
    return found[0]


class Workload:
    """Commands of one iteration, the set-up they need, and their checks."""

    reads_cache = False
    # set-up children per run; setup_s is their median time
    setup_repeats = 9

    def __init__(self, cli, work):
        self.cli = cli
        self.work = work
        self.tol = cli.DEFAULT_TOLS["self_duality_pointwise"]

    def setup_commands(self, repeat):
        """argv lists a set-up child runs after importing the CLI."""
        return []

    def prepared(self):
        """Adopt what the last set-up child left behind."""

    def commands(self, k):
        """(output directory, argv list) of iteration k."""
        raise NotImplementedError

    def check(self, out):
        """(problems, headroom) of the iteration's outputs under `out`."""
        raise NotImplementedError


class Generate(Workload):
    """Cold `generate` of both examples into a fresh output directory."""

    def commands(self, k):
        out = self.work / f"iter{k}"
        return out, [["generate", "--example", ex, *GENERATE_FLAGS,
                      "--out", str(out)] for ex in EXAMPLES]

    def check(self, out):
        run = run_dir(out, "paraboloid")
        return [], checks.self_duality_ratio(
            run / "lam0_B.csv", run / "lam0_h.csv", self.tol)


class Verify(Workload):
    """The residual battery on the paraboloid and on smyth-2's fine grid."""

    def commands(self, k):
        out = self.work / f"iter{k}"
        return out, [["verify", "--example", ex, "--lambda", lams,
                      "--out", str(out)] for ex, lams in VERIFY_RUNS]

    def check(self, out):
        return checks.verify_reports(out)


class Reuse(Workload):
    """`dual` and `export` on the run directories set-up generated."""

    reads_cache = True
    # each child builds both run directories (about 8 s)
    setup_repeats = 2

    def setup_commands(self, repeat):
        return [["generate", "--example", ex, *GENERATE_FLAGS,
                 "--out", str(self.work / f"setup{repeat}")]
                for ex in EXAMPLES]

    def prepared(self):
        last = self.setup_repeats - 1
        for repeat in range(last):
            shutil.rmtree(self.work / f"setup{repeat}")
        self.out = self.work / f"setup{last}"
        self.runs = [run_dir(self.out, ex) for ex in EXAMPLES]

    def commands(self, k):
        cmds = [["dual", "--example", ex, *GENERATE_FLAGS, "--out", str(self.out)]
                for ex in EXAMPLES]
        cmds += [["export", "--run", str(run), "--formats", "obj,csv"]
                 for run in self.runs]
        return self.out, cmds

    def check(self, out):
        problems = checks.cache_misses(out, self.runs)
        run = self.runs[EXAMPLES.index("paraboloid")]
        return problems, checks.self_duality_ratio(
            run / "lam0_B_star.csv", run / "lam0_h_star.csv", self.tol)


WORKLOADS = {"generate": Generate, "verify": Verify, "reuse": Reuse}


def set_up(wl):
    """(start, end) of each set-up child, and the warm-up's seconds.

    A child's span runs from starting a fresh interpreter to its exit after
    importing the CLI and running the workload's set-up commands: what a
    process pays before its first timed iteration. Running set-up in
    children keeps its memory out of this process's peak. An untimed run of
    the workload's paraboloid commands then lets lazy set-up and caches in
    this process settle before timing.
    """
    spans = []
    for repeat in range(wl.setup_repeats):
        argvs = json.dumps(wl.setup_commands(repeat))
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), argvs], cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        spans.append((t0, time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError(f"set-up child exited {done.returncode}:\n"
                               f"{done.stderr[-2000:]}")
    wl.prepared()
    out, cmds = wl.commands("warm-up")
    t0 = time.monotonic()
    for argv in cmds:
        if any("paraboloid" in arg for arg in argv):
            call_cli(wl.cli.main, argv)
    warm_up = time.monotonic() - t0
    if not wl.reads_cache:
        shutil.rmtree(out, ignore_errors=True)
    return spans, warm_up


def run_iteration(wl, k, order):
    """((start, end), output directory, problems, headroom, digests) of
    iteration k."""
    out, cmds = wl.commands(k)
    order.shuffle(cmds)
    problems = []
    t0 = time.monotonic()
    for argv in cmds:
        rc, err = call_cli(wl.cli.main, argv)
        if rc != 0:
            problems.append(f"{' '.join(argv[:3])} exited {rc}: {err[-500:]}")
    try:
        found, headroom = wl.check(out)
    except (OSError, ValueError, KeyError) as exc:
        found, headroom = [f"outputs unreadable: {exc!r}"], None
    if headroom is not None and headroom > 1.0:
        found.append(f"a check is at {headroom:.3g} of its tolerance")
    problems += found + checks.nonfinite_files(out)
    digests = checks.digests(out)
    return (t0, time.monotonic()), out, problems, headroom, digests


def measure(wl, seconds, seed, trace, ticker):
    """Iterate while one more iteration, at the median length so far, would
    end within `seconds`; always at least once, and with `trace` until there
    is at least one untraced and one traced iteration.

    Returns the (start, end) spans of the untraced (False) and traced
    (True) iterations, with the outputs' headrooms and problems.
    """
    order = random.Random(seed)
    tracer = Tracer() if trace else None
    spans = {False: [], True: []}
    steps = []
    headrooms, problems = [], []
    failed = 0
    reference = None
    start = time.monotonic()
    k = 0
    while k == 0 or (time.monotonic() - start + statistics.median(steps)
                     <= seconds) or (trace and not spans[True]):
        t0 = time.monotonic()
        traced = trace and k % 2 == 1
        if traced:
            tracer.iteration = k
            with tracer.installed(), ticker.paused():
                span, out, found, headroom, digests = run_iteration(
                    wl, k, order)
            if wl.reads_cache and any(s.iteration == k
                                      and s.name.startswith("potentials.")
                                      for s in tracer.spans):
                found.append("cache miss: potentials called")
        else:
            span, out, found, headroom, digests = run_iteration(wl, k, order)
        if reference is None:
            reference = digests
        found += checks.changed_files(reference, digests)
        if not wl.reads_cache:
            shutil.rmtree(out, ignore_errors=True)
        spans[traced].append(span)
        steps.append(time.monotonic() - t0)
        if headroom is not None:
            headrooms.append(headroom)
        if found:
            failed += 1
            problems.append({"iteration": k, "problems": found})
        k += 1
    return spans, headrooms, failed, problems, tracer


def tail_percentile(samples):
    """Highest of the 50th, 90th, 99th and 99.9th percentiles with at least
    ten samples beyond it, as (percentile, value); None with fewer than 20
    samples."""
    n = len(samples)
    usable = [pm for pm in (500, 900, 990, 999) if n * (1000 - pm) >= 10000]
    if not usable:
        return None
    pm = usable[-1]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return pm / 10, cuts[pm - 1]


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_record(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": (os.environ.get("OPENBLAS_NUM_THREADS")
                         or os.environ.get("OMP_NUM_THREADS") or "default"),
        "commit": git_commit(),
        "seed": seed,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](cli, work)
        with Ticker() as ticker:
            setup, warm_up = set_up(wl)
            spans, headrooms, failed, problems, tracer = measure(
                wl, args.seconds, args.seed, args.trace, ticker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def seconds(spans, rescale=True):
        return [ticker.seconds(t0, t1) if rescale else t1 - t0
                for t0, t1 in spans]

    times = {traced: seconds(s) for traced, s in spans.items()}
    attempted = len(times[False]) + len(times[True])
    wall = statistics.median(times[False])
    record = {
        "workload": args.workload, "trace": args.trace,
        "machine": machine_record(args.seed),
        "setup_s_samples": seconds(setup),
        "wall_s_samples": times[False],
        "wall_s_tail_percentile": tail_percentile(times[False]),
        "raw_setup_s_samples": seconds(setup, rescale=False),
        "raw_wall_s_samples": seconds(spans[False], rescale=False),
        "warm_up_s": warm_up,
        "ticks": len(ticker.samples),
        "fail_ratio": failed / attempted,
        "problems": problems,
    }
    if args.trace:
        record["traced_wall_s_samples"] = times[True]
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps([vars(s) for s in tracer.spans]))
        record["spans"] = str(spans_file.relative_to(ROOT))
        metrics = layer_metrics(tracer.spans,
                                statistics.median(times[True]) - wall)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(seconds(setup)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
            "pass_ratio": (1.0 - failed / attempted, "1"),
            "headroom_max": (max(headrooms, default=0.0), "1"),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
