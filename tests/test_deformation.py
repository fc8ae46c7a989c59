"""Deformed multiplication, series inversion, idempotent lifting, and the
flattened-model bridges."""

import random
import re
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from znalg.algebra import (
    FiniteAlgebra,
    Multilinear,
    direct_product,
    matrix_algebra,
    triangular_algebra,
    validate_algebra,
    zn,
    zn_poly_x2,
)
from znalg.classify import decomposition_report, jacobson_radical
from znalg.deformation import (
    TruncatedDeformation,
    at_order,
    catalog_deformations,
    clean_decompose_def,
    def_from_constant,
    def_mul,
    def_one,
    def_sub,
    def_t,
    flatten,
    flatten_element,
    gauge_deformation,
    invert_def,
    lift_idempotent_def,
    lift_idempotent_newton,
    obstruction_probe,
    remark2_series,
    seeded_gauge_map,
    t_in_radical_check,
    trivial_deformation,
    validate_deformation,
    x_squared_t_deformation,
)
from znalg.errors import (
    CapExceeded,
    ConstantTermNotUnit,
    NotAssociativeAtOrder,
    NotIdempotent,
    SelfCheckFailed,
    UnitChanged,
)
from znalg.extension import build_extension, lift_idempotent
from znalg.hochschild import Cochain, regular_bimodule


def corrections(D):
    """{m: the dense table of alpha_m} over D's corrected orders."""
    return {m: alpha.dense for m, alpha in D.alphas.items()}


def support(D):
    """The orders whose component is not zero: 0 and the corrected ones."""
    return (0, *D.alphas)


def random_def_element(D, seed):
    rng = random.Random(seed)
    A = D.base
    return tuple(
        tuple(rng.randrange(A.n) for _ in range(A.rank))
        for _ in range(D.order))


def test_trivial_deformation_validates():
    for A in (zn(2), zn(5), triangular_algebra(2, 2)):
        D = trivial_deformation(A, 4)
        assert D.order == 4


def test_x_squared_t_validates_at_various_orders():
    for order in (2, 3, 4, 8):
        D = x_squared_t_deformation(2, order)
        assert len(D.cochains) == order - 1


def test_x_squared_t_at_order_one_is_its_base():
    # t vanishes at order 1, so the correction at order 1 is dropped and
    # the truncation is the base, as trivial_deformation(A, 1) and the
    # order-1 truncation of a higher order are
    for n in (2, 3):
        D = x_squared_t_deformation(n, 1)
        assert (D.order, corrections(D), support(D)) == (1, {}, (0,))
        assert D.name == f"x^2=t over Z{n} (N=1)"
        assert flatten(D).table == flatten(
            trivial_deformation(zn_poly_x2(n), 1)).table
        E = at_order(x_squared_t_deformation(n, 4), 1)
        assert (corrections(E), support(E)) == (corrections(D), support(D))


def test_unit_changed_rejected():
    A = zn_poly_x2(2)
    bad = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]  # alpha1(1, x) = 1
    with pytest.raises(UnitChanged):
        validate_deformation(TruncatedDeformation(A, 2, {1: bad}))


def test_not_associative_at_order_rejected():
    # with a vanishing first-order term, order-2 associativity reduces to the
    # cocycle identity for the second term; alpha2(e01, e01) = e01 on T2(Z2)
    # fails it at the triple (e01, e00, e01)
    from znalg.errors import NotAssociativeAtOrder
    T2 = triangular_algebra(2, 2)
    zero = [[[0, 0, 0]] * 3 for _ in range(3)]
    alpha2 = [[[0, 0, 0]] * 3 for _ in range(3)]
    alpha2[1] = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    with pytest.raises(NotAssociativeAtOrder) as err:
        validate_deformation(TruncatedDeformation(T2, 3, {1: zero, 2: alpha2}))
    assert err.value.order == 2


def test_order_mismatch_rejected():
    from znalg.errors import OrderMismatch
    D = trivial_deformation(zn(2), 3)
    with pytest.raises(OrderMismatch):
        def_mul(D, ((1,), (0,)), ((1,), (0,), (0,)))


def test_def_mul_trivial_is_truncated_polynomial_product():
    A = zn(3)
    D = trivial_deformation(A, 4)
    f = ((1,), (2,), (0,), (1,))
    g = ((2,), (1,), (1,), (0,))
    prod = def_mul(D, f, g)
    # polynomial product coefficients mod 3, truncated at t^4:
    # 1*2; 1*1+2*2; 1*1+2*1+0*2; 1*0+2*1+0*1+1*2
    assert prod == ((2,), (2,), (0,), (1,))


def test_x_squared_t_product():
    D = x_squared_t_deformation(2, 3)
    A = D.base
    x = def_from_constant(D, (0, 1))
    xx = def_mul(D, x, x)
    assert xx == (A.zero(), A.one(), A.zero())  # x*x = t


def test_def_mul_unit_neutral():
    for D in catalog_deformations(4):
        one = def_one(D)
        for seed in range(5):
            f = random_def_element(D, seed)
            assert def_mul(D, f, one) == f
            assert def_mul(D, one, f) == f


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_def_mul_associative_on_random_triples(seed):
    rng = random.Random(seed)
    for D in catalog_deformations(3):
        f, g, h = (random_def_element(D, rng.randrange(1 << 30))
                   for _ in range(3))
        assert def_mul(D, def_mul(D, f, g), h) == def_mul(D, f, def_mul(D, g, h))


def test_invert_geometric_series():
    D = trivial_deformation(zn(2), 8)
    A = D.base
    f = def_sub(D, def_one(D), def_t(D))  # 1 - t = 1 + t over Z2
    g = invert_def(D, f)
    assert g == tuple([A.one()] * 8)      # 1 + t + ... + t^7


def test_invert_constant_unit():
    D = trivial_deformation(zn(5), 6)
    f = def_from_constant(D, (3,))
    g = invert_def(D, f)
    assert g == def_from_constant(D, (2,))


def test_invert_x_squared_t_case():
    D = x_squared_t_deformation(2, 4)
    A = D.base
    f = def_from_constant(D, (1, 1))  # 1 + x; (1+x)^2 = 1 + t here
    g = invert_def(D, f)
    assert def_mul(D, f, g) == def_one(D)
    # (1+x)(1 + t + t^2 + t^3) truncated: verify against direct product
    geo = tuple([A.one()] * 4)
    expect = def_mul(D, f, geo)
    assert g == expect


def test_invert_rejects_non_unit_constant():
    D = x_squared_t_deformation(2, 3)
    with pytest.raises(ConstantTermNotUnit):
        invert_def(D, def_from_constant(D, (0, 1)))


def test_invert_random_elements_two_sided():
    from znalg.classify import classify_elements
    for D in catalog_deformations(8):
        units = [u for u, _ in classify_elements(D.base).units]
        rng = random.Random(42)
        for _ in range(10):
            f = list(random_def_element(D, rng.randrange(1 << 30)))
            f[0] = units[rng.randrange(len(units))]
            f = tuple(f)
            g = invert_def(D, f)
            assert def_mul(D, f, g) == def_one(D)
            assert def_mul(D, g, f) == def_one(D)


def test_t_in_radical_trivial_z2():
    D = trivial_deformation(zn(2), 2)
    check = t_in_radical_check(D)
    assert check.structural_ok
    assert check.brute_ok is True
    # flattened model is the dual numbers: radical is {0, t}
    F = flatten(D)
    assert jacobson_radical(F) == [(0, 0), (0, 1)]


def test_t_in_radical_x_squared_t():
    D = x_squared_t_deformation(2, 2)
    check = t_in_radical_check(D)
    assert check.structural_ok and check.brute_ok is True


def test_t_in_radical_x_squared_t_at_order_6():
    # 4096-element flattened model: t is tested for membership alone, so
    # this stays in seconds where building all of J took minutes
    check = t_in_radical_check(x_squared_t_deformation(2, 6))
    assert check.structural_ok
    assert check.brute_ok is True


def test_t_in_radical_all_catalog():
    for D in catalog_deformations(3):
        check = t_in_radical_check(D)
        assert check.structural_ok
        assert check.brute_ok is True


def test_t_in_radical_refuses_over_cap():
    from znalg.errors import CapExceeded
    D = trivial_deformation(zn(2), 4)
    with pytest.raises(CapExceeded):
        t_in_radical_check(D, cap=8)


def test_flatten_refuses_without_forming_its_element_count():
    # 2^(2*8000) and 3^(2*3000) have more digits than Python formats: the
    # refusal names the power and never forms it; at the boundary the
    # count is formed and compared exactly
    for D, cap, shown in (
            (x_squared_t_deformation(2, 8000), 10 ** 6, "2^(2*8000)"),
            (trivial_deformation(zn_poly_x2(3), 3000), None, "3^(2*3000)"),
            (x_squared_t_deformation(2, 2), 15, "2^(2*2)")):
        message = f"flattened model: {shown} elements exceeds cap "
        with pytest.raises(CapExceeded, match="^" + re.escape(message)):
            flatten(D, cap)
        with pytest.raises(CapExceeded, match="flattened model"):
            t_in_radical_check(D, cap)
    assert flatten(x_squared_t_deformation(2, 2), cap=16).size == 16


def _faulty_def_mul(monkeypatch, D, fault):
    """Patch deformation.def_mul on x^2=t so that one product of the radical
    check is wrong: t*x at t^0 ("noncentral"), or t^(N-1)*t and t*t^(N-1)
    ("nonnilpotent").  The wrong value gains the nilpotent x as its
    constant term, so 1 - t*g stays a unit."""
    import znalg.deformation as deformation
    t, zero, x = def_t(D), (0, 0), (0, 1)
    if fault == "noncentral":
        wrong = {(t, (x,) + (zero,) * (D.order - 1))}
    else:
        power = t
        for _ in range(D.order - 2):
            power = def_mul(D, power, t)
        wrong = {(power, t), (t, power)}

    def faulty(D, f, g):
        product = def_mul(D, f, g)
        if (f, g) in wrong:
            product = (D.base.add(product[0], x),) + product[1:]
        return product
    monkeypatch.setattr(deformation, "def_mul", faulty)


@pytest.mark.parametrize("fault", ["noncentral", "nonnilpotent"])
def test_t_in_radical_structural_half_can_fail(fault, monkeypatch, tmp_path,
                                               capsys):
    # with t*g != g*t on one basis element, or with t^N != 0, the structural
    # clause fails and deform validate exits 1; the flattened model, which
    # forms no series product, still puts t in the radical
    import json
    from znalg.cli import EXIT_ASSERTION, main
    from znalg.documents import builtin_catalog_document
    doc = tmp_path / "ws.json"
    doc.write_text(json.dumps(builtin_catalog_document()))
    D = x_squared_t_deformation(2, 4)
    _faulty_def_mul(monkeypatch, D, fault)
    check = t_in_radical_check(D)
    assert (check.structural_ok, check.brute_ok) == (False, True)
    code = main(["deform", "validate", "--doc", str(doc),
                 "--deformation", "x^2=t over Z2 (N=4)"])
    out = capsys.readouterr().out
    assert code == EXIT_ASSERTION
    assert "[FAIL] t-in-radical-structural" in out
    assert "[PASS] t-in-radical-brute-force" in out


def test_t_in_radical_forms_no_inverse(monkeypatch):
    # the structural half proves t central and nilpotent: 2 products per
    # basis element g = e_i t^j and N - 1 for t^N, and no inversion
    import znalg.deformation as deformation
    kernel, products = deformation._kronecker_product, []

    def counted(D, f, g):
        products.append(len(f))
        return kernel(D, f, g)

    def refused(*args, **kwargs):
        raise AssertionError("the radical check inverts nothing")
    monkeypatch.setattr(deformation, "_kronecker_product", counted)
    monkeypatch.setattr(deformation, "invert_def", refused)
    T2 = triangular_algebra(2, 2)
    for D in (*catalog_deformations(2), *catalog_deformations(5),
              gauge_deformation(T2, seeded_gauge_map(T2, 5), 4)):
        products.clear()
        assert t_in_radical_check(D).structural_ok
        r, N = D.base.rank, D.order
        assert 0 < len(products) <= 2 * r * N + N - 1, D.name


def radical_square_zero_deformation():
    """<1, x, y> over Z2, every product of x and y zero, deformed at order
    1 by alpha_1(x, x) = y and alpha_1(y, x) = x: a cocycle, so valid at
    order 2, whose square alpha_1(alpha_1(x, x), x) = x differs from
    alpha_1(x, alpha_1(x, x)) = 0."""
    structure = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                 [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    A = validate_algebra(FiniteAlgebra(2, 3, structure, [1, 0, 0]))
    alpha1 = [[[0, 0, 0]] * 3, [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
              [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]
    return validate_deformation(TruncatedDeformation(A, 2, {1: alpha1}))


def test_at_order_certifies_the_orders_it_adds():
    # the order-2 defect of alpha_1 with no alpha_2 is nonzero, so moving
    # the order-2 deformation to order 3 fails there, at the triple and
    # with the sides the dense loop finds; moving it back down is free
    from test_algebra import outcome
    D = radical_square_zero_deformation()
    assert at_order(D, 2) is D
    got = outcome(at_order, D, 3)
    assert got[0] is NotAssociativeAtOrder and got[3]["order"] == 2
    assert got == outcome(dense_validate_deformation, TruncatedDeformation(
        D.base, 3, corrections(D), D.name))
    E = at_order(at_order(x_squared_t_deformation(2, 4), 8), 1)
    assert (E.order, corrections(E), support(E)) == (1, {}, (0,))


def test_at_order_costs_the_support_not_the_order():
    # x^2=t moves from order 4 to 10^6 without forming a table per order,
    # and its corrections and support are the same
    import time
    D = x_squared_t_deformation(2, 4)
    start = time.monotonic()
    E = at_order(D, 10 ** 6)
    assert time.monotonic() - start < 0.25
    assert E.order == 10 ** 6 and corrections(E) == corrections(D)
    assert support(E) == (0, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_a_correction_that_reduces_to_zero_is_dropped(n):
    # every entry of alpha_2 is n, nonzero as an integer and 0 mod n: its
    # map reads nnz 0 after the one walk, and the table is dropped from
    # the corrections, the maps and the support, and cochains still writes
    # a zero table at order 2; alpha_3, x*x = t^3 with one nonzero entry,
    # is kept
    A = zn_poly_x2(n)
    multiples = [[[n, n], [n, n]], [[n, n], [n, n]]]
    x_squared = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
    D = validate_deformation(TruncatedDeformation(
        A, 4, {2: multiples, 3: x_squared}))
    assert list(corrections(D)) == list(D.alphas) == [3]
    assert support(D) == (0, 3)
    assert D.alphas[3].cells == (((), ()), ((), ((0, 1),)))
    zero = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert D.cochains == (zero, zero, (((0, 0), (0, 0)), ((0, 0), (1, 0))))


@pytest.mark.parametrize("order, estimate", [(2000, 3256000),
                                             (20000, 43120000)])
def test_newton_lift_refuses_its_work_before_the_first_product(
        monkeypatch, order, estimate):
    # the gauge deformation of T2(Z2) by seeded map 5 corrects orders 1 and
    # 2; e_00 does not commute with e_01, so only the Newton lift runs.  At
    # order 20000 it may form 3 * 16 + 1 products of 20000 * 44 slot
    # visits: refused before any product, naming the estimate
    import time
    import znalg.deformation as deformation
    T2 = triangular_algebra(2, 2)
    D = at_order(gauge_deformation(T2, seeded_gauge_map(T2, 5), 4), order)

    def ran(*args):
        raise AssertionError("a product ran before the refusal")
    monkeypatch.setattr(deformation, "def_mul", ran)
    start = time.monotonic()
    with pytest.raises(CapExceeded, match=f"Newton lift at order {order}: "
                       f"{estimate} slot visits exceeds cap 1048576"):
        lift_idempotent_newton(D, (1, 0, 0))
    assert time.monotonic() - start < 1


def test_newton_lift_admits_the_workload_orders():
    # the three rank-2 deformations at order 32 (estimates 7296, 4256 and
    # 8512) and x^2=t at order 64 (16896) lift under the default cap
    P = direct_product([zn(2), zn(2)])
    for D in (x_squared_t_deformation(2, 32), x_squared_t_deformation(2, 64),
              trivial_deformation(zn_poly_x2(3), 32),
              gauge_deformation(P, seeded_gauge_map(P, 300), 32)):
        g, _ = lift_idempotent_newton(D, (1, 0))
        assert def_mul(D, g, g) == g and g[0] == (1, 0)


def test_newton_fixed_point_trivial():
    for A in (zn(2), zn_poly_x2(2), direct_product([zn(2), zn(2)])):
        D = trivial_deformation(A, 8)
        for e in (x for x in A.elements() if A.mul(x, x) == x):
            g, iters = lift_idempotent_newton(D, e)
            assert g == def_from_constant(D, e)
            assert iters == 0


def test_newton_unit_lift_x_squared_t():
    D = x_squared_t_deformation(2, 8)
    g, iters = lift_idempotent_newton(D, (1, 0))
    assert g == def_one(D)


def test_newton_converges_on_gauge_deformation():
    P = direct_product([zn(2), zn(2)])
    D = gauge_deformation(P, seeded_gauge_map(P, 300), 4)
    for e in (x for x in P.elements() if P.mul(x, x) == x):
        g, iters = lift_idempotent_newton(D, e)
        assert def_mul(D, g, g) == g
        assert g[0] == e
        assert iters <= 3


def test_newton_squares_once_per_iteration(monkeypatch):
    import znalg.deformation as deformation
    calls = []

    def counted(D, f, g):
        calls.append(1)
        return def_mul(D, f, g)

    monkeypatch.setattr(deformation, "def_mul", counted)
    P = direct_product([zn(2), zn(2)])
    D = gauge_deformation(P, seeded_gauge_map(P, 300), 4)
    total = 0
    for e in (x for x in P.elements() if P.mul(x, x) == x):
        calls.clear()
        _, iters = lift_idempotent_newton(D, e)
        assert len(calls) == 3 * iters + 1
        total += iters
    assert total > 0


def test_newton_iteration_bound_catalog():
    for D in catalog_deformations(16):
        bound = (16 - 1).bit_length() + 1
        A = D.base
        for e in (x for x in A.elements() if A.mul(x, x) == x):
            g, iters = lift_idempotent_newton(D, e)
            assert iters <= bound
            assert def_mul(D, g, g) == g


def test_newton_rejects_non_idempotent():
    D = trivial_deformation(zn(4), 4)
    with pytest.raises(NotIdempotent):
        lift_idempotent_newton(D, (2,))


def test_central_recursion_matches_newton():
    for D in catalog_deformations(4):
        A = D.base
        for e in (x for x in A.elements() if A.mul(x, x) == x):
            lift = lift_idempotent_def(D, e)
            assert lift.recursed is all(
                A.mul(e, A.basis(i)) == A.mul(A.basis(i), e)
                for i in range(A.rank))
            g = lift.lift
            assert def_mul(D, g, g) == g


def test_central_recursion_rejects_noncentral(monkeypatch):
    # a noncentral idempotent gets the Newton lift alone: the lift reports
    # that the central recursion did not run, and it never runs
    import znalg.deformation as deformation
    monkeypatch.setattr(deformation, "_probe", None)
    T2 = triangular_algebra(2, 2)
    D = trivial_deformation(T2, 4)
    lift = lift_idempotent_def(D, (1, 0, 0))
    assert lift.recursed is False
    assert lift.lift == lift_idempotent_newton(D, (1, 0, 0))[0]


def test_central_lift_walks_the_basis_once(monkeypatch):
    # one walk per call, for a central idempotent and a noncentral one
    # alike; each job's work is estimated once, the probe's only for the
    # central one, and e is checked once
    import znalg.deformation as deformation
    from znalg.algebra import FiniteAlgebra
    walk, walks, estimates = deformation._noncommuting_basis, [], []
    estimate = deformation._slot_visits
    check, checks = FiniteAlgebra.require_idempotent, []
    monkeypatch.setattr(deformation, "_noncommuting_basis",
                        lambda A, e: walks.append(e) or walk(A, e))
    monkeypatch.setattr(deformation, "_slot_visits",
                        lambda *args: estimates.append(args) or estimate(*args))
    monkeypatch.setattr(FiniteAlgebra, "require_idempotent",
                        lambda A, e: checks.append(e) or check(A, e))
    T2 = triangular_algebra(2, 2)
    D = trivial_deformation(T2, 4)
    central = 0
    for e in T2.idempotents():
        i = walk(T2, e)
        walks.clear(), estimates.clear(), checks.clear()
        lift = lift_idempotent_def(D, e)
        assert lift.lift[0] == e and lift.recursed is (i is None)
        jobs = [args[1] for args in estimates]
        assert (len(walks), checks) == (1, [e])
        if i is None:
            assert jobs == ["obstruction probe", "Newton lift"]
            central += 1
        else:
            assert jobs == ["Newton lift"]
    assert 0 < central < len(T2.idempotents())


def test_order_one_lift_runs_no_recursion():
    # at order 1 the lift of a central idempotent is e itself, and the
    # central recursion, with no order to derive, does not run
    D = x_squared_t_deformation(2, 1)
    lift = lift_idempotent_def(D, (1, 0))
    assert (lift.lift, lift.iterations, lift.recursed) == (((1, 0),), 0, False)


def test_central_lift_order1_matches_extension_lift():
    # at N = 2 the flattened deformation is the self-extension by alpha1, and
    # the two canonical idempotent lifts must coincide coordinatewise
    P = direct_product([zn(2), zn(2)])
    D = gauge_deformation(P, seeded_gauge_map(P, 300), 2)
    M = regular_bimodule(P)
    f = Cochain(2, M, D.cochains[0])
    B = build_extension(P, M, f)
    F = flatten(D)
    assert F.table == B.carrier.table
    assert F.unit == B.carrier.unit
    for e in (x for x in P.elements() if P.mul(x, x) == x):
        lift = lift_idempotent_def(D, e)
        assert lift.recursed
        assert flatten_element(D, lift.lift) == lift_idempotent(B, e)


def test_central_lift_compares_against_the_lift_it_is_given(monkeypatch):
    # the central lift compares the recursion with the Newton lift it is
    # given by the Newton body: the right one is accepted, and one wrong
    # coefficient is refused
    import znalg.deformation as deformation
    for D in catalog_deformations(4):
        A = D.base
        for e in A.idempotents():
            newton, iterations = lift_idempotent_newton(D, e)
            assert lift_idempotent_def(D, e).lift == newton
            wrong = newton[:-1] + (A.add(newton[-1], A.one()),)
            monkeypatch.setattr(deformation, "_newton_lift",
                                lambda *args: (wrong, iterations))
            with pytest.raises(SelfCheckFailed, match="disagrees with Newton"):
                lift_idempotent_def(D, e)
            monkeypatch.undo()


def test_obstruction_probe_central_succeeds():
    P = direct_product([zn(2), zn(2)])
    D = gauge_deformation(P, seeded_gauge_map(P, 300), 4)
    rep = obstruction_probe(D, (1, 0), depth=3)
    assert rep.first_failure is None
    assert all(commutes and solves for _, commutes, solves in rep.orders)


def test_obstruction_probe_orders_one_two_always_succeed():
    T2 = triangular_algebra(2, 2)
    for seed in (1, 2, 3):
        D = gauge_deformation(T2, seeded_gauge_map(T2, seed), 4)
        rep = obstruction_probe(D, (1, 0, 0), depth=3)
        ords = {k: (commutes, solves) for k, commutes, solves in rep.orders}
        assert ords[1][1] is True
        assert ords[2] == (True, True)


def test_remark2_series_commuting_case_collapses():
    A = zn_poly_x2(2)
    verdict = remark2_series(A, (1, 0), (0, 1))
    assert verdict.series[1] == A.zero()
    assert verdict.idempotent and not verdict.nontrivial


def test_remark2_series_t2():
    T2 = triangular_algebra(2, 2)
    e11, e12 = (1, 0, 0), (0, 1, 0)
    verdict = remark2_series(T2, e11, e12)
    assert verdict.series[:2] == (e11, e12)
    assert verdict.idempotent and verdict.nontrivial


def test_remark2_series_m2():
    M2 = matrix_algebra(2, 2)
    e11 = (1, 0, 0, 0)
    x = (0, 1, 1, 0)  # e12 + e21
    verdict = remark2_series(M2, e11, x)
    assert verdict.series[1] == x
    assert verdict.series[2] == M2.one()  # a1^2 = 1 here
    assert verdict.idempotent and verdict.nontrivial


def test_remark2_series_t2z4():
    T2 = triangular_algebra(4, 2)
    verdict = remark2_series(T2, (1, 0, 0), (0, 1, 0))
    assert verdict.idempotent and verdict.nontrivial


def test_clean_decompose_trivial_t():
    D = trivial_deformation(zn(2), 4)
    h = def_t(D)
    e_t, u_t = clean_decompose_def(D, h)
    # base witness for 0 is 0 = 1 + 1 over Z2 (first idempotent with unit
    # complement in lex order): whatever the witness, parts recombine
    assert def_sub(D, h, u_t) == e_t
    assert def_mul(D, e_t, e_t) == e_t


def test_clean_decompose_x_squared_t():
    D = x_squared_t_deformation(2, 3)
    A = D.base
    h = def_from_constant(D, (0, 1))
    e_t, u_t = clean_decompose_def(D, h)
    assert def_sub(D, h, u_t) == e_t
    invert_def(D, u_t)


def test_clean_decompose_estimates_each_job_once(monkeypatch):
    # the unit part's inverse and the Newton lift each have their work
    # estimated once, the inverse's first
    import znalg.deformation as deformation
    estimate, jobs = deformation._slot_visits, []
    monkeypatch.setattr(deformation, "_slot_visits", lambda D, job, *rest:
                        jobs.append(job) or estimate(D, job, *rest))
    for D in (x_squared_t_deformation(2, 3), trivial_deformation(zn(3), 5)):
        for h in (def_one(D), def_from_constant(D, D.base.zero())):
            jobs.clear()
            clean_decompose_def(D, h)
            assert jobs == ["inverse", "Newton lift"], (D.name, h)


def test_inverse_walks_the_constant_term_under_the_job_cap():
    # over Z101 at order 1 the inverse's products cost 6 slot visits, but
    # the walk to the inverse of 2 takes 100 powers: the job's cap refuses
    # it exactly as Z101's own inverse does
    D = trivial_deformation(zn(101), 1)
    for invert in (lambda cap: zn(101).inverse((2,), cap),
                   lambda cap: invert_def(D, ((2,),), cap)):
        with pytest.raises(CapExceeded, match="11 powers exceeds cap 10$"):
            invert(10)
    assert invert_def(D, ((2,),), cap=100) == ((51,),)


def test_clean_decompose_constant_one():
    D = x_squared_t_deformation(2, 3)
    h = def_one(D)
    e_t, u_t = clean_decompose_def(D, h)
    assert e_t == (D.base.zero(),) * 3  # 1 = 0 + 1 is the first witness
    assert u_t == h


def test_flatten_trivial_z2_is_dual_numbers():
    D = trivial_deformation(zn(2), 2)
    F = flatten(D)
    assert F.size == 4
    t = (0, 1)
    assert F.mul(t, t) == (0, 0)


def test_flatten_order_one_is_base():
    A = zn_poly_x2(2)
    D = trivial_deformation(A, 1)
    F = flatten(D)
    assert F.table == A.table and F.unit == A.unit


def test_flatten_x_squared_t_structural_flags():
    D = x_squared_t_deformation(2, 2)
    F = flatten(D)
    assert F.size == 16
    rep = decomposition_report(F)
    assert rep.flags["clean"] and rep.flags["uniquely_clean"]
    assert rep.flags["exchange"]


def assert_matches_flatten(D):
    """flatten assembles the series product over every order on its own, so
    the flattened model checks def_mul and every recursion that shares its
    coefficient.  The base must be commutative, so that every idempotent is
    central and has exactly one lift."""
    A = D.base
    F = flatten(D)
    rng = random.Random(7)
    for _ in range(10):
        f = random_def_element(D, rng.randrange(1 << 30))
        g = random_def_element(D, rng.randrange(1 << 30))
        flat_f = flatten_element(D, f)
        assert (F.mul(flat_f, flatten_element(D, g))
                == flatten_element(D, def_mul(D, f, g)))
        flat_inv = F.inverse(flat_f)
        if A.inverse(f[0]) is None:
            assert flat_inv is None
            with pytest.raises(ConstantTermNotUnit):
                invert_def(D, f)
        else:
            assert flatten_element(D, invert_def(D, f)) == flat_inv
    lifts = {}
    for z in F.idempotents():
        lifts.setdefault(z[:A.rank], []).append(z)
    for e in A.idempotents():
        assert len(lifts[e]) == 1
        assert flatten_element(D, lift_idempotent_def(D, e).lift) \
            == lifts[e][0]
        newton, _ = lift_idempotent_newton(D, e)
        assert flatten_element(D, newton) == lifts[e][0]


def test_flatten_respects_def_mul():
    for order in range(2, 6):
        for D in catalog_deformations(order):
            assert_matches_flatten(D)


def correction_orders(D):
    return [m for m, table in enumerate(D.cochains, 1)
            if any(any(cell) for row in table for cell in row)]


def substitute_t_squared(D, order):
    """D with t replaced by t^2, cut at the given order: the correction at
    order 2m is D's at order m, and every odd order carries none."""
    doubled = {2 * m: table for m, table in corrections(D).items()
               if 2 * m < order}
    return validate_deformation(TruncatedDeformation(
        D.base, order, doubled, name=f"{D.name} at t^2"))


def gapped_deformations(order):
    """Deformations whose corrections skip orders: x^2 = t^2 (order 2
    only), the gauge map [[1, 1], [1, 1]] on Z2 x Z2 (orders 1 and 2) and
    the same gauge at t^2 (orders 2 and 4)."""
    P = direct_product([zn(2), zn(2)])
    gauge = gauge_deformation(P, [[1, 1], [1, 1]], order)
    return [substitute_t_squared(x_squared_t_deformation(2, order), order),
            gauge, substitute_t_squared(gauge, order)]


def test_flatten_respects_def_mul_with_gapped_corrections():
    # every catalog deformation corrects order 1 at most; these skip orders,
    # so a sum that stops or indexes wrongly past a gap disagrees with the
    # flattened model
    assert [correction_orders(D) for D in gapped_deformations(6)] \
        == [[2], [1, 2], [2, 4]]
    for order in range(2, 7):
        for D in gapped_deformations(order):
            assert_matches_flatten(D)


def test_non_cocycle_at_order_three_fails_where_the_dense_sum_does():
    # on Z2[X]/(X^3) a correction with alpha3(x, x^2) = 1 and alpha3(x^2, x)
    # = 0 breaks the cocycle identity at (x, x, x); with no correction at
    # orders 1 and 2, associativity first fails at order 3
    from znalg.errors import NotAssociativeAtOrder
    r, n, order = 3, 2, 5
    structure = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r - i):
            structure[i][j][i + j] = 1
    A = validate_algebra(FiniteAlgebra(n, r, structure, [1, 0, 0]))
    zero = [[[0] * r for _ in range(r)] for _ in range(r)]
    alpha3 = [[[0] * r for _ in range(r)] for _ in range(r)]
    alpha3[1][2] = [1, 0, 0]
    cochains = [zero, zero, alpha3, zero]
    tables = [structure] + cochains

    def alpha(m, x, y):
        return tuple(
            sum(x[i] * y[j] * tables[m][i][j][k]
                for i in range(r) for j in range(r)) % n
            for k in range(r))

    def add(x, y):
        return tuple((a + b) % n for a, b in zip(x, y))

    def first_dense_failure():
        basis = [A.basis(i) for i in range(r)]
        for k in range(order):
            for i, j, l in product(range(r), repeat=3):
                ei, ej, el = basis[i], basis[j], basis[l]
                lhs = rhs = A.zero()
                for m in range(k + 1):
                    lhs = add(lhs, alpha(m, alpha(k - m, ei, ej), el))
                    rhs = add(rhs, alpha(m, ei, alpha(k - m, ej, el)))
                if lhs != rhs:
                    return k, (i, j, l)
        return None

    expected = first_dense_failure()
    assert expected is not None and expected[0] == 3
    with pytest.raises(NotAssociativeAtOrder) as err:
        validate_deformation(
            TruncatedDeformation(A, order, dict(enumerate(cochains, 1))))
    assert (err.value.order, err.value.triple) == expected


def dense_validate_deformation(D):
    """The unit laws at every order and associativity at every order k,
    summed over all m <= k, by products of dense basis vectors on every
    basis triple: the oracle for the sparse-cell certificate."""
    A = D.base
    one, zero = A.one(), A.zero()
    for m in range(1, D.order):
        for j in range(A.rank):
            ej = A.basis(j)
            if D.alpha(m, one, ej) != zero or D.alpha(m, ej, one) != zero:
                raise UnitChanged(
                    f"order-{m} cochain moves the unit on basis element {j}")
    for k in range(D.order):
        for i, j, l in product(range(A.rank), repeat=3):
            ei, ej, el = A.basis(i), A.basis(j), A.basis(l)
            lhs = rhs = zero
            for m in range(k + 1):
                lhs = A.add(lhs, D.alpha(m, D.alpha(k - m, ei, ej), el))
                rhs = A.add(rhs, D.alpha(m, ei, D.alpha(k - m, ej, el)))
            if lhs != rhs:
                raise NotAssociativeAtOrder(k, (i, j, l), lhs, rhs)


def test_deformation_certificate_matches_dense_triple_loop():
    # same verdict, and on failure the same order, first triple, lhs and
    # rhs, as the dense loop, on the catalog, gapped and seeded gauge
    # deformations and on seeded single-entry corruptions of one
    # correction; most corruptions spare the unit's rows and columns
    from test_algebra import outcome
    rng = random.Random(41)
    deformations = catalog_deformations(4) + gapped_deformations(5) + [
        gauge_deformation(A, seeded_gauge_map(A, seed), 4)
        for seed, A in enumerate((triangular_algebra(2, 2),
                                  matrix_algebra(3, 2),
                                  triangular_algebra(2, 3)))]
    seen = set()
    for D in deformations:
        A, n = D.base, D.base.n
        free = [i for i in range(A.rank) if not A.unit[i]] or [0]
        for trial in range(8):
            cochains = [[[list(cell) for cell in row] for row in table]
                        for table in D.cochains]
            cols = free if trial % 4 else list(range(A.rank))
            i, j = rng.choice(cols), rng.choice(cols)
            cell = cochains[rng.randrange(D.order - 1)][i][j]
            k = rng.randrange(A.rank)
            cell[k] = (cell[k] + rng.randrange(1, n)) % n
            E = TruncatedDeformation(A, D.order, dict(enumerate(cochains, 1)),
                                     D.name)
            got = outcome(validate_deformation, E)
            assert got == outcome(dense_validate_deformation, E)
            seen.add(got if got == "passes" else got[0])
    assert {NotAssociativeAtOrder, UnitChanged, "passes"} <= seen


def test_flatten_clean_transfer_catalog():
    # clean/uniquely-clean/exchange status transfers from base to truncation
    for D in catalog_deformations(2):
        base_rep = decomposition_report(D.base)
        flat_rep = decomposition_report(flatten(D))
        assert flat_rep.flags["clean"] == base_rep.flags["clean"]
        assert flat_rep.flags["exchange"] == base_rep.flags["exchange"]
        if base_rep.flags["uniquely_clean"]:
            assert flat_rep.flags["uniquely_clean"]


def oracle_coefficient(D, f, g, k):
    """Coefficient k of f*g summed as one alpha call and one tuple add per
    pair of nonzero coefficients: the oracle for the Kronecker kernel."""
    A = D.base
    acc = A.zero()
    for m in support(D):
        if m > k:
            break
        for a in range(k - m + 1):
            fa = f[a]
            gb = g[k - m - a]
            if any(fa) and any(gb):
                acc = A.add(acc, D.alpha(m, fa, gb))
    return acc


def oracle_mul(D, f, g):
    """f*g mod t^L, L the length of f and g, one coefficient at a time."""
    return tuple(oracle_coefficient(D, f, g, k) for k in range(len(f)))


def oracle_invert_def(D, f):
    """Both recursions through the oracle coefficient, then both products
    with f recomputed in full: the oracle for the Newton inverse."""
    from znalg.errors import SelfCheckFailed
    A = D.base
    a0inv = A.inverse(f[0])
    if a0inv is None:
        raise ConstantTermNotUnit(f"constant term {f[0]} is not a unit")
    b = [a0inv] + [A.zero()] * (D.order - 1)
    c = list(b)
    for k in range(1, D.order):
        b[k] = A.mul(a0inv, A.neg(oracle_coefficient(D, f, b, k)))
        c[k] = A.mul(A.neg(oracle_coefficient(D, c, f, k)), a0inv)
    if c != b:
        raise SelfCheckFailed("left and right inverse recursions disagree")
    one = def_one(D)
    if oracle_mul(D, f, tuple(b)) != one or oracle_mul(D, tuple(b), f) != one:
        raise SelfCheckFailed("inverse failed to certify by multiplication")
    return tuple(b)


def kernel_deformations():
    """Catalog, long, trivial, gapped, Z4-based and rank-3 deformations."""
    T2 = triangular_algebra(2, 2)
    T2z4 = triangular_algebra(4, 2)
    Dz4 = zn_poly_x2(4)
    return catalog_deformations(4) + gapped_deformations(6) + [
        x_squared_t_deformation(2, 32),
        trivial_deformation(zn_poly_x2(3), 6),
        gauge_deformation(T2, seeded_gauge_map(T2, 5), 6),
        gauge_deformation(Dz4, seeded_gauge_map(Dz4, 8), 6),
        gauge_deformation(T2z4, seeded_gauge_map(T2z4, 11), 5),
    ]


def result_or_error(run, *args):
    """run(*args), or the outcome of the error it raised."""
    from test_algebra import outcome
    out = []
    got = outcome(lambda: out.append(run(*args)))
    return out[0] if got == "passes" else got


def with_oracle_kernel(monkeypatch, run, *args):
    """result_or_error of run(*args) with the Kronecker kernel, then with
    the oracle product in its place."""
    import znalg.deformation as deformation
    kronecker = result_or_error(run, *args)
    with monkeypatch.context() as patch:
        patch.setattr(deformation, "_kronecker_product", oracle_mul)
        oracle = result_or_error(run, *args)
    return kronecker, oracle


def kernel_series(D, kind, rng):
    """A series of D with every entry n - 1 ("full", the largest slot sums
    the product can reach), zero, or drawn with about a third of its
    coefficients zero."""
    A = D.base
    if kind == "full":
        return ((A.n - 1,) * A.rank,) * D.order
    if kind == "zero":
        return (A.zero(),) * D.order
    return tuple(A.zero() if rng.random() < 1 / 3
                 else tuple(rng.randrange(A.n) for _ in range(A.rank))
                 for _ in range(D.order))


SERIES_KINDS = ("full", "zero", "random")


def test_kronecker_product_matches_the_oracle():
    for D in kernel_deformations():
        rng = random.Random(D.order * 13 + D.base.n)
        for kinds in product(SERIES_KINDS, repeat=2):
            f, g = (kernel_series(D, kind, rng) for kind in kinds)
            assert def_mul(D, f, g) == oracle_mul(D, f, g), (D.name, kinds)


KERNEL_BASES = {1: zn, 2: zn_poly_x2, 3: lambda n: triangular_algebra(n, 2)}


# Z9 at order 4 and T2(Z3) at order 4 with every correction full: the
# largest slot sum of full series needs exactly 8k + 1 bits there, so one
# bit less rounds down to a whole byte too few
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(n=9, rank=1, order=4, support=0, tables="full",
         kinds=("full", "full"), seed=0)
@example(n=3, rank=3, order=4, support=7, tables="full",
         kinds=("full", "full"), seed=0)
@given(n=st.sampled_from((2, 3, 4, 6, 9, 257)), rank=st.integers(1, 3),
       order=st.integers(1, 40), support=st.integers(0, 2 ** 39 - 1),
       tables=st.sampled_from(("full", "random")),
       kinds=st.tuples(st.sampled_from(SERIES_KINDS),
                       st.sampled_from(SERIES_KINDS)),
       seed=st.integers(0, 2 ** 32))
def test_kronecker_product_matches_the_oracle_on_any_tables(
        n, rank, order, support, tables, kinds, seed):
    # the product is a bilinear convolution over whatever tables it is
    # given, so the corrections are not validated: bit m - 1 of support
    # says whether order m carries one (gapped supports included), and
    # "full" tables, every entry n - 1, give the largest slot sums; over
    # Z257 a coefficient takes two bytes.  The series truncated at each
    # length L multiply to the full product cut at L: the supported orders
    # L and up, which the width must not count, reach no kept slot
    from znalg.deformation import _kronecker_product
    rng = random.Random(seed)
    A = KERNEL_BASES[rank](n)
    r = A.rank

    def table(m):
        if not support >> (m - 1) & 1:
            return [[[0] * r] * r] * r
        return [[[n - 1 if tables == "full" else rng.randrange(n)
                  for _ in range(r)] for _ in range(r)] for _ in range(r)]
    D = TruncatedDeformation(A, order, {m: table(m) for m in range(1, order)})
    f, g = (kernel_series(D, kind, rng) for kind in kinds)
    full = oracle_mul(D, f, g)
    assert def_mul(D, f, g) == full
    for length in range(1, order + 1):
        assert _kronecker_product(D, f[:length], g[:length]) \
            == full[:length], length


def test_recursion_sum_inverse_matches_the_oracle():
    for D in kernel_deformations():
        A = D.base
        rng = random.Random(D.order * 17 + A.rank)
        elements = list(A.elements())
        inverted = 0
        for _ in range(8):
            f = list(random_def_element(D, rng.randrange(1 << 30)))
            f[0] = rng.choice(elements)
            f = tuple(f)
            got = result_or_error(invert_def, D, f)
            assert got == result_or_error(oracle_invert_def, D, f), D.name
            inverted += A.inverse(f[0]) is not None
        assert inverted, D.name


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3, 4, 9)), rank=st.integers(1, 3),
       order=st.integers(1, 40),
       kind=st.sampled_from(("trivial", "gauge", "x^2=t")),
       seed=st.integers(0, 2 ** 32))
def test_newton_inverse_matches_the_oracle_on_validated_deformations(
        n, rank, order, kind, seed):
    # x^2=t has rank 2 whatever rank is drawn.  The constant term is drawn
    # from every element of the base, so both must refuse a non-unit with
    # ConstantTermNotUnit and agree on every unit
    rng = random.Random(seed)
    if kind == "x^2=t":
        D = x_squared_t_deformation(n, order)
    else:
        A = KERNEL_BASES[rank](n)
        D = trivial_deformation(A, order) if kind == "trivial" \
            else gauge_deformation(A, seeded_gauge_map(A, seed), order)
    A = D.base
    f = tuple(tuple(rng.randrange(n) for _ in range(A.rank))
              for _ in range(order))
    if A.inverse(f[0]) is None:
        for run in (invert_def, oracle_invert_def):
            with pytest.raises(ConstantTermNotUnit):
                run(D, f)
    else:
        assert invert_def(D, f) == oracle_invert_def(D, f)


def test_lifts_and_probes_match_the_oracle_kernel(monkeypatch):
    for D in kernel_deformations():
        for e in D.base.idempotents():
            kronecker, oracle = with_oracle_kernel(
                monkeypatch, lift_idempotent_newton, D, e)
            assert kronecker == oracle, (D.name, e)
            kronecker, oracle = with_oracle_kernel(
                monkeypatch, obstruction_probe, D, e)
            assert kronecker == oracle, (D.name, e)


def test_slot_visits_bound_the_products_of_the_jobs_they_refuse(
        monkeypatch, tmp_path, capsys):
    # W, the estimate of each series job, is at least the slot visits of
    # the products it forms, on full series: a product of length L visits
    # L slots for each supported order below L.  At cap W - 1 each job
    # refuses before its first product, and so does the central lift
    # through its probe.  `deform lift` of a central idempotent refuses on
    # the probe's estimate first, then on the Newton lift's
    import znalg.deformation as deformation
    from znalg.deformation import _slot_visits
    kernel = deformation._kronecker_product
    visits = [0]

    def counted(D, f, g):
        r2 = D.base.rank ** 2
        visits[0] += len(f) * sum(r2 + alpha.nnz for m, alpha
                                  in D._supported() if m < len(f))
        return kernel(D, f, g)
    monkeypatch.setattr(deformation, "_kronecker_product", counted)

    def bounded(work, run, *args):
        visits[0] = 0
        run(*args, cap=work)
        assert 0 < visits[0] <= work, (run.__name__, args)
        assert refused(work, run, *args)

    def refused(work, run, *args):
        visits[0] = 0
        with pytest.raises(CapExceeded, match=" slot visits exceeds cap"):
            run(*args, cap=work - 1)
        return visits[0] == 0

    big = 10 ** 9
    for D in kernel_deformations():
        A = D.base
        f = (A.one(),) + kernel_series(D, "full", None)[1:]
        bounded(_slot_visits(D, "inverse", big), invert_def, D, f)
        for e in A.idempotents():
            bounded(_slot_visits(D, "Newton lift", big),
                    lift_idempotent_newton, D, e)
            for d in {D.order - 1, min(2, D.order - 1)}:
                bounded(_slot_visits(D, "obstruction probe", big, d),
                        obstruction_probe, D, e, d)
            if deformation._noncommuting_basis(A, e) is None:
                assert refused(
                    _slot_visits(D, "obstruction probe", big, D.order - 1),
                    lift_idempotent_def, D, e)

    import json
    from znalg.cli import EXIT_CAP, EXIT_OK, main
    from znalg.documents import builtin_catalog_document
    doc = tmp_path / "ws.json"
    doc.write_text(json.dumps(builtin_catalog_document()))
    D = x_squared_t_deformation(2, 32)
    probe = _slot_visits(D, "obstruction probe", big, D.order - 1)
    newton = _slot_visits(D, "Newton lift", big)
    assert probe < newton
    for cap, job, work in ((probe - 1, "obstruction probe", probe),
                           (probe, "Newton lift", newton),
                           (newton - 1, "Newton lift", newton),
                           (newton, None, None)):
        visits[0] = 0
        code = main(["--cap", str(cap), "deform", "lift", "--doc", str(doc),
                     "--deformation", "x^2=t over Z2 (N=4)",
                     "--idempotent", "[1, 0]", "--order", "32"])
        err = capsys.readouterr().err
        if job is None:
            assert (code, err) == (EXIT_OK, "") and visits[0] > 0
        else:
            assert (code, visits[0]) == (EXIT_CAP, 0), cap
            assert err == (f"cap exceeded: {job} at order 32: {work} slot "
                           f"visits exceeds cap {cap}\n")


def certified_or_refused(D, f, got):
    """got, the outcome of invert_def(D, f), is an inverse that the oracle
    product certifies on both sides, or SelfCheckFailed naming
    multiplication; True when it is an inverse."""
    from znalg.errors import SelfCheckFailed
    if got[0] is SelfCheckFailed:
        assert got[2] == "inverse failed to certify by multiplication"
        return False
    one = def_one(D)
    assert oracle_mul(D, f, got) == one == oracle_mul(D, got, f)
    return True


def test_wrong_constant_inverse_fails_the_certificate(monkeypatch):
    # (1 + x)^-1 = 1 + 2x in Z3[X]/(X^2).  Newton's iteration from a base
    # that answers 1 + x either recovers the inverse, which both products
    # certify, or refuses naming multiplication; on the trivial
    # deformation it recovers, while the oracle's recursions go wrong from
    # that start.  From a base that answers 0 it never leaves 0, and both
    # refuse naming multiplication
    from znalg.errors import SelfCheckFailed
    from test_algebra import outcome
    recovered = 0
    for D in (x_squared_t_deformation(3, 6),
              trivial_deformation(zn_poly_x2(3), 6)):
        f = def_from_constant(D, (1, 1))
        inverse = invert_def(D, f)
        assert inverse[0] == (1, 2)
        with monkeypatch.context() as patch:
            patch.setattr(D.base, "inverse", lambda x, cap=None: (1, 1))
            got = result_or_error(invert_def, D, f)
            if certified_or_refused(D, f, got):
                assert got == inverse
                recovered += 1
            assert outcome(oracle_invert_def, D, f)[0] is SelfCheckFailed
        with monkeypatch.context() as patch:
            patch.setattr(D.base, "inverse", lambda x, cap=None: (0, 0))
            got = outcome(invert_def, D, f)
            assert got == outcome(oracle_invert_def, D, f)
            assert got[0] is SelfCheckFailed
            assert "certify by multiplication" in got[2]
    assert recovered


@pytest.mark.parametrize("lost", [((1, 1), (1, 2)), ((1, 2), (1, 1))])
def test_one_sided_constant_inverse_fails_the_certificate(monkeypatch, lost):
    # the base table of Z3[X]/(X^2) is corrupted so that (1 + x)(1 + 2x) = 1
    # fails on one side only, and the base answers 1 + 2x as the inverse of
    # 1 + x.  The base's map is what the recursion's sums and the full
    # product read, and the base product reads it through its compiled
    # kernel, which the new map builds from its cells.  f is constant and
    # the deformation trivial, so the recursion solves b = (1 + 2x, 0, ...)
    # and only the product on the lost side sees it: f*b by the recursion's
    # sums, b*f by the full product
    from test_algebra import outcome
    D = trivial_deformation(zn_poly_x2(3), 6)
    A = D.base
    f = def_from_constant(D, (1, 1))
    # the corruption adds d1 to cell (1, x), d2 to cell (x, 1) and d3 to
    # cell (x, x), all on the unit coordinate: x*y moves by
    # x1 y2 d1 + x2 y1 d2 + x2 y2 d3, which is 1 on the lost side, 0 on
    # the other
    d1, d2, d3 = (2, 1, 1) if lost == ((1, 1), (1, 2)) else (1, 2, 1)
    table = [[list(cell) for cell in row] for row in A.table]
    for (i, j), d in (((0, 1), d1), ((1, 0), d2), ((1, 1), d3)):
        table[i][j][0] = (table[i][j][0] + d) % 3
    monkeypatch.setattr(A, "mult", Multilinear(table, 3, A.mult.shape))
    monkeypatch.setattr(A, "inverse", lambda x, cap=None: (1, 2))
    assert A.mul(*lost) != A.one()
    assert A.mul(*reversed(lost)) == A.one()
    got = outcome(invert_def, D, f)
    assert got == outcome(oracle_invert_def, D, f)
    assert got[0] is SelfCheckFailed
    assert "certify by multiplication" in got[2]


def test_newton_stalled_at_a_left_inverse_fails_the_certificate(monkeypatch):
    # the x-coordinates of cells (1, x), (x, 1) and (x, x) of Z3[X]/(X^2)
    # are moved by 2, 1 and 1, and the base answers 1 + 2x as the inverse
    # of 1 + x.  Then b = 1 + 2x has b(1 + x) = 1 but (1 + x)b = 1 + x, and
    # b(2 - (1 + x)b) = b: Newton's iteration for the constant f = 1 + x
    # stays at b, a left inverse, which only the f*b half of the
    # certificate refuses
    from znalg.errors import SelfCheckFailed
    from test_algebra import outcome
    D = trivial_deformation(zn_poly_x2(3), 6)
    A = D.base
    table = [[list(cell) for cell in row] for row in A.table]
    for (i, j), d in (((0, 1), 2), ((1, 0), 1), ((1, 1), 1)):
        table[i][j][1] = (table[i][j][1] + d) % 3
    monkeypatch.setattr(A, "mult", Multilinear(table, 3, A.mult.shape))
    monkeypatch.setattr(A, "inverse", lambda x, cap=None: (1, 2))
    f, b = def_from_constant(D, (1, 1)), def_from_constant(D, (1, 2))
    assert def_mul(D, b, f) == def_one(D) != def_mul(D, f, b)
    got = outcome(invert_def, D, f)
    assert got[0] is SelfCheckFailed
    assert got[2] == "inverse failed to certify by multiplication"
    assert outcome(oracle_invert_def, D, f)[0] is SelfCheckFailed


def test_correction_perturbed_after_validation_fails_the_self_check():
    # one coordinate of one cell of a validated correction is changed: the
    # series product is then no longer associative.  The inverse returns
    # only what both oracle products certify, and then the oracle's
    # recursions, whose solutions f*b = 1 and b*f = 1 fix, return it too;
    # otherwise its certificate names multiplication.  Both outcomes occur
    T2 = triangular_algebra(2, 2)
    refused = passed = 0
    for seed in range(12):
        D = gauge_deformation(T2, seeded_gauge_map(T2, seed), 4 + seed % 3)
        if not D.alphas:
            continue  # seed 8 draws the zero gauge map: nothing to perturb
        rng = random.Random(seed)
        m = rng.choice(list(D.alphas))
        table = [[list(cell) for cell in row] for row in D.alphas[m].dense]
        i, j = rng.randrange(3), rng.randrange(3)
        k = rng.randrange(3)
        table[i][j][k] = (table[i][j][k] + 1) % 2
        D.alphas[m] = Multilinear(table, 2, (3, 3, 3))
        for _ in range(4):
            f = list(random_def_element(D, rng.randrange(1 << 30)))
            f[0] = T2.one()
            f = tuple(f)
            got = result_or_error(invert_def, D, f)
            if certified_or_refused(D, f, got):
                assert got == result_or_error(oracle_invert_def, D, f)
                passed += 1
            else:
                refused += 1
    assert refused and passed


def test_inverse_forms_at_most_its_estimated_products(monkeypatch):
    # at most 2 * _newton_bound(D) + 1 products, each through def_mul, and
    # neither alpha nor a tuple add
    import znalg.deformation as deformation
    from znalg.algebra import FiniteAlgebra
    from znalg.deformation import _newton_bound
    counts = {"_kronecker_product": 0, "def_mul": 0, "alpha": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper
    for name in ("_kronecker_product", "def_mul"):
        monkeypatch.setattr(deformation, name,
                            counted(name, getattr(deformation, name)))
    monkeypatch.setattr(TruncatedDeformation, "alpha",
                        counted("alpha", TruncatedDeformation.alpha))
    monkeypatch.setattr(FiniteAlgebra, "add",
                        counted("add", FiniteAlgebra.add))
    for D in kernel_deformations():
        f = (D.base.one(),) + random_def_element(D, 3)[1:]
        counts.update(dict.fromkeys(counts, 0))
        invert_def(D, f)
        products = counts["_kronecker_product"]
        assert 2 <= products <= 2 * _newton_bound(D) + 1, D.name
        assert counts["def_mul"] == products
        assert counts["alpha"] == counts["add"] == 0
