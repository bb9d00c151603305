"""fracheat benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 bench/run.py --workload cold_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference machine speed by a probe timed all through set-up and the loop
(see :mod:`harness`); ``--trace 1`` serves the same
loop with spans around fracheat's layers, serves part of it again traced
and untraced in alternating pairs to measure the tracing overhead, and
prints the per-layer metrics.  ``all``
runs every workload both ways, each in a fresh process, and prints a table.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record.
"""
from __future__ import annotations

import os

# single-threaded BLAS/OpenMP: pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

WORKLOAD_CHOICES = WORKLOADS + ("all",)
#: the paired replay that measures tracing overhead covers at least this
#: share of the traced window
REPLAY_SHARE = 0.2


def _import_fracheat(root: Path):
    """The fracheat package from ``root/src``, and nothing else."""
    package = root / "src" / "fracheat" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import fracheat
    import fracheat.kernel
    import fracheat.solver
    import fracheat.specfun
    import fracheat.timechange
    if Path(fracheat.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported {fracheat.__file__}, not {package}")
    return fracheat


def _commit(root: Path) -> str:
    """Commit id read from ``root/.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_record(root: Path, args, deadline_s: float) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "deadline_s": deadline_s, "ref_probe_s": harness.REF_PROBE_S,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(root),
    }


def _replay(workload, fh, outcomes, budget_s, solve, modules, deadline_s,
            errors) -> tuple[float, float]:
    """Serve a prefix of the traced requests again, each once traced and
    once untraced, in alternating order so drift in machine speed cancels.

    Returns ``(traced_s, untraced_s)``; the prefix is the shortest whose
    traced time reaches ``budget_s``.  Every solve starts from the cache
    state the timed loop started from.
    """
    def run(req, traced):
        if workload == "cold_sweep":
            harness.clear_profile_cache(fh)
        if not traced:
            return harness.serve(req, solve, deadline_s, errors).wall
        tr = tracing.Tracer()
        tr.install(modules)
        try:
            return harness.serve(req, tr.span(tracing.ROOT, solve),
                                 deadline_s, errors).wall
        finally:
            tr.uninstall()

    traced_s = untraced_s = 0.0
    for i, out in enumerate(outcomes):
        if traced_s >= budget_s:
            break
        walls = {traced: run(out.request, traced)
                 for traced in ((False, True), (True, False))[i % 2]}
        traced_s += walls[True]
        untraced_s += walls[False]
    return traced_s, untraced_s


def run_workload(args) -> int:
    root = Path.cwd()
    fh = _import_fracheat(root)
    deadline_s = harness.DEADLINES[args.workload]
    record = _run_record(root, args, deadline_s)
    self_test = oracle.self_test()
    solve = harness.make_solver(fh)
    errors = (fh.FracheatError,)

    def reference(route, n, sign, alpha, t, xs):
        try:
            with harness.deadline(harness.REFERENCE_DEADLINE):
                return solve(route, n, sign, alpha, t, xs)
        except (harness.DeadlineExceeded, fh.FracheatError) as exc:
            raise oracle.ReferenceUnavailable(str(exc)) from None

    modules = {"solver": fh.solver, "specfun": fh.specfun,
               "timechange": fh.timechange, "kernel": fh.kernel}
    # the traced run reports shares and counts only: no probing there
    sampler = None if args.trace else harness.SpeedSampler()
    harness.probe_work()  # first-call costs of the probe itself
    with sampler or contextlib.nullcontext():
        setup_s, setup_wall_s = harness.timed_setup(
            fh, args.workload, solve, sampler=sampler)
        loop_solve = solve
        if args.trace:
            tr = tracing.Tracer()
            tr.install(modules)
            loop_solve = tr.span(tracing.ROOT, solve)
        try:
            outcomes, wall, served = harness.closed_loop(
                rounds(args.workload, args.seed), args.seconds, loop_solve,
                deadline_s, errors, sampler=sampler)
        finally:
            if args.trace:
                tr.uninstall()
    if sampler is not None:
        record["probe_s"] = {"samples": len(sampler.samples),
                             "median": statistics.median(sampler.samples)}
    rss = harness.peak_rss_mb()
    if args.trace:
        traced_s, untraced_s = _replay(
            args.workload, fh, outcomes, REPLAY_SHARE * wall, solve, modules,
            deadline_s, errors)

    report = oracle.check(outcomes, reference)
    metrics, extras = harness.end_to_end(outcomes, setup_s, rss, report)
    if args.trace:
        metrics = tracing.per_layer_metrics(
            tr, wall, len(outcomes), extras["points"],
            traced_s - untraced_s, untraced_s)
        own, total = tr.times()
        record["layers"] = {
            "self_s": own, "inclusive_s": total,
            "counts": dict(tr.counts), "absent": tr.absent,
            "replayed_traced_s": traced_s, "replayed_untraced_s": untraced_s}
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["layer", "start", "end", "parent"],
             "spans": tr.spans}))
        record["spans_file"] = str(spans_file.relative_to(root))
    failed = sum(not o.ok for o in outcomes)
    correct = not self_test and report.wrong == 0 and report.checked > 0
    record.update({
        "rounds": served, "measured_s": wall,
        "oracle_self_test": self_test or "passed",
        "checked_points": report.checked,
        "unchecked_points": report.unchecked,
        "wrong_points": report.wrong,
        "violations": report.examples,
        "failures": [{"stratum": o.request.stratum, "status": o.status,
                      "alpha": o.request.alpha, "message": o.message}
                     for o in outcomes if not o.ok],
        "solves": [[o.request.stratum, o.status, o.wall, o.ref_s]
                   for o in outcomes],
        "setup_s": setup_s, "setup_wall_s": setup_wall_s,
        **extras,
    })
    print(json.dumps({"record": record}, default=float))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    here = Path(__file__).resolve()
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(here), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                sys.exit(f"error: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}")
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            summary[f"{workload}/trace{trace}"] = result
            print(f"== {workload} (trace {trace}): correct={result['correct']}"
                  f" attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
            if not trace:
                # end-to-end figures that can be 0 or undefined, which is
                # why they stay out of the metrics object
                for name, unit in (("points_per_s", "1/s"),
                                   ("solve_p50_s", "s"),
                                   ("failed_frac", "share"),
                                   ("bound_violation_frac", "share"),
                                   ("err_est_p50", "abs")):
                    print(f"  {name:40s} {record[name]:.6g} {unit}")
                tail = record["solve_tail"]
                print(f"  {'solve_tail_s':40s} " + (
                    "n/a (fewer than 40 solves)" if tail is None else
                    f"{tail['value_s']:.6g} s at p{tail['percentile']} "
                    f"of {tail['solves']}"))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CHOICES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
