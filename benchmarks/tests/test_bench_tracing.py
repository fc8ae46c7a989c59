"""Self-time arithmetic, wrapper installation and the traced accounting."""

import importlib
import inspect
import json

import pytest

from znbench import hostspeed, tracing, workloads

import run


def span(id, parent, start, end, hot=0.0, name="x"):
    return {"id": id, "name": name, "parent": parent, "start": start,
            "end": end, "hot_s": hot, "job": "j"}


def test_self_time_on_synthetic_spans():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0, hot=1.0),
        span(2, 0, 5.0, 9.0),
        span(3, 2, 6.0, 7.0, hot=0.25),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 0.75}
    assert sum(tracing.self_times(spans).values()) == 10.0 - 1.0 - 0.25


def _bound_originals(originals):
    """Every place in the package that still holds one of originals."""
    found = []
    modules = [importlib.import_module("znalg")] + [
        importlib.import_module(f"znalg.{m}") for m in tracing.MODULES]
    for mod in modules:
        for attr, val in vars(mod).items():
            if inspect.isfunction(val) and val in originals:
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, dict):
                found += [f"{mod.__name__}.{attr}[{k!r}]"
                          for k, v in val.items()
                          if inspect.isfunction(v) and v in originals]
    return found


def test_install_wraps_every_binding_site_and_uninstall_restores():
    import znalg.cli as cli
    from znalg.algebra import FiniteAlgebra

    tracer = tracing.Tracer()
    before = dict(cli.JOB_HANDLERS)
    mul = FiniteAlgebra.__dict__["mul"]
    originals = set(tracer.targets())
    assert _bound_originals(originals)
    tracer.install()
    try:
        assert _bound_originals(originals) == []
        assert cli.JOB_HANDLERS["classify"] is not before["classify"]
        # imported names: decomposition_report lives in classify and is
        # bound again in cli, extension, deformation and poset
        names = {importlib.import_module(f"znalg.{m}").decomposition_report
                 for m in ("classify", "cli", "extension", "deformation",
                           "poset")}
        assert len(names) == 1
        assert FiniteAlgebra.__dict__["mul"] is not mul
    finally:
        tracer.uninstall()
    assert cli.JOB_HANDLERS == before
    assert FiniteAlgebra.__dict__["mul"] is mul
    assert set(tracer.targets()) == originals


def _nonzero(counts):
    return {k: v for k, v in counts.items() if v}


def _small_workload():
    wl = workloads.build("cohomology", 3)
    wl.jobs = [j for j in wl.jobs if j.name.startswith("cohomology circle")]
    return wl


def _traced_pass(wl, tmp_path):
    (tmp_path / "reports").mkdir(exist_ok=True)
    doc = tmp_path / "document.json"
    doc.write_text(wl.document_text())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = run.run_pass(wl, doc, tmp_path, tracer)
    finally:
        tracer.uninstall()
    return tracer, results


def test_layer_self_times_add_up_and_counts_repeat(tmp_path):
    wl = _small_workload()
    tracer, results = _traced_pass(wl, tmp_path)
    assert all(not r.problems for r in results)
    assert tracer.misnested == 0
    summary = tracing.summarize(tracer)
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * len(wl.jobs)
    covered = sum(s["end"] - s["start"] for s in roots)
    assert sum(summary["layers"].values()) == pytest.approx(covered, rel=1e-6)
    metrics = run.layer_metrics(summary, results, wl, 1.0)
    assert metrics["linal.eliminate.rows"][0] > 0
    assert metrics["cli.exit_codes.0"][0] == len(wl.jobs)

    again, _ = _traced_pass(wl, tmp_path)
    assert dict(again.calls) == dict(tracer.calls)
    assert _nonzero(tracing.summarize(again)["extra"]) == _nonzero(
        summary["extra"])
    json.dumps(tracer.spans)


def test_host_speed_factor():
    ref = hostspeed.REFERENCE_S
    assert run.speed_factor(ref, ref) == 1.0
    # a host running at half speed halves the measured seconds
    assert run.speed_factor(2 * ref, 2 * ref) == 0.5
    assert hostspeed.calibrate() > 0
