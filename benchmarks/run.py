"""Run one znalg benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's document is generated from
the seed into ``.znbench/``, every job goes through the public CLI entry
point ``znalg.cli.main`` in this one process, one job after another (a
closed loop with one client), and each verdict is checked against reference
answers that do not come from znalg.  Passes over the job list repeat until
``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced, then traced passes with every public znalg function wrapped, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every verdict is correct, 1 when one is wrong, and 2 when the
program cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from znbench import checks, hostspeed, tracing, workloads  # noqa: E402

SETUP_REPEATS = 15
SETUP_CODE = ("import time; t = time.perf_counter(); import znalg, znalg.cli; "
              "print(time.perf_counter() - t)")
LAYERS = ("algebra", "classify", "hochschild", "linal", "deformation",
          "extension", "poset", "documents", "cli")
EXIT_CODES = (0, 1, 2, 3, 4)


@dataclass
class JobResult:
    name: str
    code: object
    seconds: float          # at the reference host speed
    raw_seconds: float      # as measured
    problems: list
    report_bytes: int


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "znalg" / "cli.py").is_file():
        print(f"benchmark: no znalg sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import znalg.cli
    if src.resolve() not in Path(znalg.cli.__file__).resolve().parents:
        print(f"benchmark: imported znalg from {znalg.cli.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2

    work = root / ".znbench" / f"{args.workload}-{args.seed}"
    (work / "reports").mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed)
    doc_path = work / "document.json"
    doc_path.write_text(wl.document_text())
    describe(wl)

    if args.trace:
        results, metrics = traced_run(wl, doc_path, work, args.seconds)
    else:
        setup = measure_setup(root, src)
        results, metrics = untraced_run(wl, doc_path, work, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
        print(f"setup_s: median of {len(setup)} fresh interpreters "
              "importing znalg and znalg.cli")

    failed = [r for r in results if r.problems]
    for r in failed[:20]:
        print(f"WRONG {r.name}: {'; '.join(r.problems)}")
    print(f"failed_ratio: {len(failed)} of {len(results)} verdicts wrong "
          f"({len(failed) / len(results):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


def describe(wl):
    print(f"workload {wl.name} seed {wl.seed}: {len(wl.jobs)} jobs")
    for key, why in wl.why.items():
        print(f"  why {key}: {why}")
    for job in wl.jobs:
        props = " ".join(f"{k}={v}" for k, v in job.props.items())
        print(f"  input {job.name}: {props}")


def measure_setup(root, src):
    """Seconds a fresh interpreter spends importing znalg and znalg.cli, at
    the reference host speed; the first run only warms the bytecode cache
    and is dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    times = []
    before = hostspeed.calibrate()
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        after = hostspeed.calibrate()
        times.append(float(out.stdout) * speed_factor(before, after))
        before = after
    return times[1:]


def speed_factor(before, after):
    """Scale from measured seconds to seconds at the reference host speed,
    from the calibration loop timed just before and just after the work."""
    return hostspeed.REFERENCE_S / ((before + after) / 2)


def run_pass(wl, doc_path, work, tracer=None):
    """One pass over the job list: each job through znalg.cli.main, timed,
    scaled to the reference host speed and checked against its reference."""
    import znalg.cli as cli
    results = []
    before = hostspeed.calibrate()
    for idx, job in enumerate(wl.jobs):
        report_path = work / "reports" / f"{idx:03d}.json"
        report_path.unlink(missing_ok=True)
        argv = ["--report", str(report_path), "run", str(doc_path), job.name]
        if tracer is not None:
            tracer.job = job.name
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a wrong verdict, reported below
            code = f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        after = hostspeed.calibrate()
        factor = speed_factor(before, after)
        before = after
        report = None
        size = 0
        if report_path.exists():
            report = json.loads(report_path.read_text())
            size = report_size(report)
        problems = checks.check(job, wl, code, report)
        if problems and err.getvalue():
            problems.append(f"stderr: {err.getvalue().strip()[:200]}")
        results.append(JobResult(job.name, code, seconds * factor, seconds,
                                 problems, size))
    return results


def report_size(report):
    """Bytes of the report as written, apart from its timing block, whose
    digits vary from run to run."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return len(json.dumps(body, indent=2, sort_keys=True)) + 1


def untraced_run(wl, doc_path, work, seconds):
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(wl, doc_path, work))
    per_job = list(zip(*[[r.seconds for r in p] for p in passes]))
    wall = sum(statistics.median(times) for times in per_job)
    jobs = [t for times in per_job for t in times]
    raw = statistics.median(sum(r.raw_seconds for r in p) for p in passes)
    print(f"wall_s: sum over {len(per_job)} jobs of each job's median over "
          f"{len(passes)} passes; job_p50_s: median of {len(jobs)} job times; "
          f"times at the reference host speed (median raw pass {raw:.3f} s)")
    metrics = {
        "wall_s": (wall, "s"),
        "job_p50_s": (statistics.median(jobs), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [r for p in passes for r in p], metrics


def traced_run(wl, doc_path, work, seconds):
    deadline = time.perf_counter() + seconds
    untraced = run_pass(wl, doc_path, work)
    untraced_wall = sum(r.seconds for r in untraced)
    tracer = tracing.Tracer()
    tracer.install()
    per_pass = []
    results = list(untraced)
    try:
        while not per_pass or time.perf_counter() < deadline:
            tracer.reset()
            traced = run_pass(wl, doc_path, work, tracer)
            if tracer.misnested:
                raise RuntimeError(
                    f"{tracer.misnested} spans started inside a hot kernel; "
                    "the self-time accounting would double count")
            results.extend(traced)
            per_pass.append(layer_metrics(
                tracing.summarize(tracer), traced, wl, untraced_wall))
    finally:
        tracer.uninstall()
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    print(f"per-layer metrics: median of {len(per_pass)} traced passes; "
          f"spans of the last pass in {work / 'spans.json'}")
    metrics = {}
    for name, (_value, unit) in per_pass[0].items():
        metrics[name] = (statistics.median(p[name][0] for p in per_pass), unit)
    return results, metrics


def layer_metrics(summary, results, wl, untraced_wall):
    busy, selft, count = summary["busy"], summary["self"], summary["count"]
    extra = summary["extra"]
    wall = sum(r.seconds for r in results)
    # spans are timed raw; one host-speed scale per pass puts them on the
    # same footing as the job times
    scale = wall / sum(r.raw_seconds for r in results)
    resolve = sum(selft[f"documents.Workspace.{m}"] for m in (
        "algebra", "bimodule", "cochain", "deformation", "poset", "presheaf",
        "job"))
    elements = extra["classify.decomposition_report.elements"]
    m = {
        "algebra.mul.calls": (count["algebra.FiniteAlgebra.mul"], "count"),
        "algebra.mul.busy_s": (busy["algebra.FiniteAlgebra.mul"], "s"),
        "algebra.elements.yielded": (summary["yielded"], "count"),
        "algebra.validate_algebra.busy_s": (
            busy["algebra.validate_algebra"], "s"),
        "algebra.table_nnz": (wl.table_nnz(), "count"),
        "classify.classify_elements.self_s": (
            selft["classify.classify_elements"], "s"),
        "classify.is_exchange.self_s": (selft["classify.is_exchange"], "s"),
        "classify.jacobson_radical.self_s": (
            selft["classify.jacobson_radical"], "s"),
        "classify.decomposition_report.self_s": (
            selft["classify.decomposition_report"], "s"),
        "classify.mul_per_element": (
            summary["mul_in_report"] / elements if elements else 0.0, "1"),
        "hochschild.delta_matrix.busy_s": (
            busy["hochschild.delta_matrix"], "s"),
        "hochschild.delta_matrix.nnz": (
            extra["hochschild.delta_matrix.nnz"], "count"),
        "hochschild.delta_matrix.cells": (
            extra["hochschild.delta_matrix.cells"], "count"),
        "hochschild.Cochain.evaluate.calls": (
            count["hochschild.Cochain.evaluate"], "count"),
        "hochschild.Cochain.evaluate.busy_s": (
            busy["hochschild.Cochain.evaluate"], "s"),
        "hochschild.Bimodule.act.calls": (
            count["hochschild.Bimodule.lact"]
            + count["hochschild.Bimodule.ract"], "count"),
        "hochschild.validate_bimodule.busy_s": (
            busy["hochschild.validate_bimodule"], "s"),
        "hochschild.is_cocycle2.self_s": (selft["hochschild.is_cocycle2"], "s"),
        "hochschild.coboundary.busy_s": (busy["hochschild.coboundary"], "s"),
        "hochschild.cohomology_dims.self_s": (
            selft["hochschild.cohomology_dims"], "s"),
        "linal.eliminate_gf2.busy_s": (busy["linal.eliminate_gf2"], "s"),
        "linal.eliminate_modp.busy_s": (busy["linal.eliminate_modp"], "s"),
        "linal.eliminate.rows": (
            extra["linal.eliminate_gf2.rows"]
            + extra["linal.eliminate_modp.rows"], "count"),
        "linal.eliminate.rank": (
            extra["linal.eliminate_gf2.rank"]
            + extra["linal.eliminate_modp.rank"], "count"),
        "linal.dense_cells": (
            extra["linal.eliminate_modp.dense_cells"], "count"),
        "deformation.alpha.calls": (
            count["deformation.TruncatedDeformation.alpha"], "count"),
        "deformation.alpha.busy_s": (
            busy["deformation.TruncatedDeformation.alpha"], "s"),
        "deformation.def_mul.calls": (count["deformation.def_mul"], "count"),
        "deformation.invert_def.self_s": (selft["deformation.invert_def"], "s"),
        "deformation.validate_deformation.busy_s": (
            busy["deformation.validate_deformation"], "s"),
        "deformation.t_in_radical_check.self_s": (
            selft["deformation.t_in_radical_check"], "s"),
        "deformation.newton.iterations": (
            extra["deformation.lift_idempotent_newton.iterations"], "count"),
        "extension.build_extension.self_s": (
            selft["extension.build_extension"], "s"),
        "extension.verify_extension_theorems.self_s": (
            selft["extension.verify_extension_theorems"], "s"),
        "poset.build_shriek.self_s": (selft["poset.build_shriek"], "s"),
        "poset.triangular_ideal_facts.self_s": (
            selft["poset.triangular_ideal_facts"], "s"),
        "poset.classify_shriek.self_s": (selft["poset.classify_shriek"], "s"),
        "documents.Workspace.load.busy_s": (
            busy["documents.Workspace.load"], "s"),
        "documents.resolve.self_s": (resolve, "s"),
        "documents.dump_report.busy_s": (busy["documents.dump_report"], "s"),
        "cli.report_bytes": (sum(r.report_bytes for r in results), "bytes"),
    }
    m = {name: (value * scale if unit == "s" else value, unit)
         for name, (value, unit) in m.items()}
    for code in EXIT_CODES:
        m[f"cli.exit_codes.{code}"] = (
            sum(1 for r in results if r.code == code), "count")
    attributed = 0.0
    for layer in LAYERS:
        t = summary["layers"][layer] * scale
        attributed += t
        m[f"layer.{layer}.self_s"] = (t, "s")
        m[f"layer.{layer}.share"] = (t / wall, "1")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["trace.overhead_ratio"] = ((wall - untraced_wall) / untraced_wall, "1")
    m["trace.attributed_ratio"] = (attributed / wall, "1")
    return m


if __name__ == "__main__":
    sys.exit(main())
