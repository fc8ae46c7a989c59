"""Every public function of the library serves a document job, or is
declared here with the reason it stays.

The test runs every golden CLI case (test_golden.CASES: each catalog job,
the catalog itself and each deform action) under sys.setprofile and
collects the public module-level functions of src/znalg whose code is
never entered.  That set must equal UNREACHED exactly, so wiring one of
them into a job, or adding a function that no job calls, shows up as a
change to the list below.
"""

import importlib
import inspect
import pkgutil
import sys

import znalg
from test_golden import CASES, run_case

UNREACHED = {
    "algebra.matrix_algebra":
        "the matrix-ring construction, whose transfer laws are to be checked",
    "catalog.catalog_extension_instances":
        "the extension inputs of the acceptance and extension tests",
    "catalog.seeded_cochain":
        "builds catalog_extension_instances' random cocycles",
    "classify.jacobson_radical":
        "the enumerated cross-check of a structural radical, acceptance "
        "criterion 08, and a traced benchmark metric",
    "cli.build_parser":
        "runs once, when cli is imported, before any job",
    "deformation.lift_idempotent_newton":
        "the Newton lift alone, acceptance criterion 06; the lift and "
        "clean-decompose jobs run its body after their own checks",
    "deformation.remark2_series":
        "the paper's noncentral lifting series, acceptance criterion 09",
    "extension.exchange_half_witness":
        "an extension formula, to give per-element carrier witnesses",
    "extension.idempotent_equation_solutions":
        "an extension formula, to count carrier idempotents from the base",
    "extension.invert_extension_element":
        "an extension formula, to give per-element carrier witnesses",
    "extension.lift_clean_decomposition":
        "an extension formula, to give per-element carrier witnesses",
    "extension.lift_idempotent":
        "an extension formula, to give per-element carrier witnesses",
    "extension.lift_nil_clean_decomposition":
        "an extension formula, to give per-element carrier witnesses",
    "extension.probe_remark_second_half":
        "the paper's open question, to become a search that tells rings "
        "apart",
    "hochschild.coboundary":
        "the cochain coboundary, which deformation prolongation needs",
    "hochschild.cocycle_space":
        "a basis of the 2-cocycles, which deformation prolongation needs",
    "hochschild.solve_coboundary":
        "solves for the obstruction's cochain in deformation prolongation",
    "poset.antichain_presheaf":
        "an example presheaf, an input of the poset tests",
    "poset.chain_presheaf":
        "an example presheaf, an input of the poset tests",
    "poset.structural_decompose":
        "the only per-element witness for a poset carrier above the cap",
}


def public_functions():
    """{code object: "module.name"} of every public function that a module
    of the package defines at module level."""
    out = {}
    for info in pkgutil.iter_modules(znalg.__path__):
        module = importlib.import_module(f"znalg.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out[obj.__code__] = f"{info.name}.{name}"
    return out


def test_every_public_function_is_reached_or_declared(tmp_path):
    public = public_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in public:
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case in sorted(CASES):
            run_case(CASES[case], tmp_path)
    finally:
        sys.setprofile(None)
    unreached = {name for code, name in public.items() if code not in entered}
    assert unreached == set(UNREACHED)
