"""Verdict checks catch wrong answers and wrong exit codes."""

import copy

from znbench import checks, workloads

import run


def _run(wl, tmp_path):
    (tmp_path / "reports").mkdir(exist_ok=True)
    doc = tmp_path / "document.json"
    doc.write_text(wl.document_text())
    return run.run_pass(wl, doc, tmp_path)


def _only(wl, name):
    wl.jobs = [j for j in wl.jobs if j.name == name]
    assert wl.jobs
    return wl


def test_correct_reference_passes(tmp_path):
    wl = _only(workloads.build("classify", 2), "classify T2(Z4) basis 0")
    [result] = _run(wl, tmp_path)
    assert result.code == 0 and result.problems == []


def test_wrong_reference_answer_is_caught(tmp_path):
    wl = _only(workloads.build("classify", 2), "classify T2(Z4) basis 0")
    wrong = copy.deepcopy(wl.jobs[0])
    wrong.expect["counts"]["idempotents"] += 1
    wrong.expect["flags"]["uniquely_clean"] = True
    wl.jobs = [wrong]
    [result] = _run(wl, tmp_path)
    assert result.code == 0
    assert any("counts" in p for p in result.problems)
    assert any("flags" in p for p in result.problems)


def test_wrong_dimension_and_wrong_exit_code_are_caught(tmp_path):
    wl = _only(workloads.build("cohomology", 2), "cohomology circle Z3 degree 1")
    job = wl.jobs[0]
    job.expect["dim_h"] += 1
    [result] = _run(wl, tmp_path)
    assert result.problems == ["dim_h: got 1, expected 2"]
    job.expect["exit"] = 3
    [result] = _run(wl, tmp_path)
    assert result.problems[0] == "exit code 0, expected 3"


def test_wrong_inverse_is_caught():
    wl = workloads.build("deform-extend", 4)
    job = next(j for j in wl.jobs if j.spec["kind"] == "deform-invert")
    f = job.expect["element"]
    report = {"assertions": [], "results": {"inverse": [list(c) for c in f]}}
    problems = checks.check(job, wl, 0, report)
    assert "f * inverse is not 1" in problems
