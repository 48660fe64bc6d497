"""Acceptance suite: every criterion at its stated scale, exact equality only.

Each test prints one [acceptance] PASS/FAIL line; run with -s to watch them.
"""

from contextlib import contextmanager

from algdeg.gfield import make_field
from algdeg.exactla import Subspace
from algdeg.structvec import tr, tr_op
from algdeg.canon import (
    Bases, ProjectivePoint, basis_MstarP, check_trace_biconditional, delta, eta,
    expected_dims, intersection_table, predicate_Mstarstar,
    submodule, trace_kernel_witness,
)
from algdeg.spinmx import (
    composition_series, module_handle, spin, standard_generators,
    survey_submodules, verify_lattice_diagrams,
)
from algdeg import degen
from algdeg import gamma2

SEED = 1729

GF3 = make_field(3)
GF4 = make_field(2, 2)
GF5 = make_field(5)
GF7 = make_field(7)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2)

ALL_FIELDS = (GF3, GF4, GF5, GF7, GF8, GF9)

_GENS = {}


def gens_for(ctx, n):
    key = (ctx, n)
    if key not in _GENS:
        _GENS[key] = standard_generators(ctx, n)
    return _GENS[key]


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


DIM_NAMES = ("C", "K", "Mstar", "Mstarstar", "T", "Ttilde", "TcapTtilde", "N", "U")


def test_criterion_01_dimension_table():
    with criterion(1, "dimension-table"):
        for n in (3, 4, 5):
            expected = expected_dims(n)
            for ctx in ALL_FIELDS:
                for name in DIM_NAMES:
                    assert submodule(name, ctx, n).dim == expected[name], \
                        (name, n, ctx)


def test_criterion_02_spin_identities():
    with criterion(2, "spin-identities"):
        for n in (3, 4):
            for ctx in ALL_FIELDS:
                gens = gens_for(ctx, n)
                assert spin(eta(ctx, n), gens) == submodule("U", ctx, n), (n, ctx)
                assert spin(delta(ctx, n), gens) == submodule("N", ctx, n), (n, ctx)


def test_criterion_03_intersection_table():
    with criterion(3, "intersection-table"):
        cases = [(ctx, 3) for ctx in ALL_FIELDS if ctx.order > 2]
        cases += [(GF3, 4), (GF5, 4)]
        seen_ids = set()
        for ctx, n in cases:
            for c in intersection_table(Bases(ctx, n)):
                assert c["status"] == "verified", (ctx, n, c["anchor"])
                seen_ids.add(c["id"])
        # the divisibility branches and the triple-intersection dimension ran
        assert "dimTcapTtildemeetMstarstar" in seen_ids
        table = {c["id"]: c for c in intersection_table(Bases(GF3, 4))}
        got = Subspace.from_json(table["UmeetMstar"]["computed"])
        assert got == basis_MstarP(GF3, 4, ProjectivePoint(GF3, 1, GF3.neg(1)))
        table = {c["id"]: c for c in intersection_table(Bases(GF5, 4))}
        got = Subspace.from_json(table["NmeetMstarstar"]["computed"])
        assert got == basis_MstarP(GF5, 4, ProjectivePoint(GF5, 1, 1))
        assert table["dimTcapTtildemeetMstarstar"]["computed"] == (4 ** 3 - 4 ** 2) // 2


def test_criterion_04_weight_truncation_suite():
    with criterion(4, "weight-truncation-suite"):
        for ctx in (GF5, GF7, GF8, GF9):
            rep = degen.lindeg_suite(gens_for(ctx, 3), SEED, 100)
            assert rep["checked"] == 100
            assert not rep["failures"], (ctx, rep["failures"][:1])


def test_criterion_05_transvection_reachability():
    with criterion(5, "transvection-reachability"):
        gf3_branches = set()
        for n in (3, 4):
            for ctx in (GF3, GF4, GF5):
                gens, bases = gens_for(ctx, n), Bases(ctx, n)
                rep = degen.reach_eta_suite(bases, gens, SEED, 50)
                assert not rep["failures"], ("eta", n, ctx)
                rep = degen.reach_delta_suite(bases, gens, SEED, 50)
                assert not rep["failures"], ("delta", n, ctx)
                if ctx is GF3:
                    gf3_branches.update(rep["branches"])
        assert gf3_branches >= {"gf3-nonzero", "gf3-zero"}


def test_criterion_06_exhaustive_survey():
    with criterion(6, "exhaustive-survey"):
        gens = gens_for(GF3, 3)
        handle = module_handle(gens, submodule("K", GF3, 3), label="K")
        lattice = survey_submodules(handle)
        proper = [s for s in lattice if 0 < s.dim < 9]
        expect = {
            basis_MstarP(GF3, 3, ProjectivePoint(GF3, 1, GF3.neg(1))),
            submodule("U", GF3, 3),
        }
        assert set(proper) == expect
        handle = module_handle(gens, submodule("Mstar", GF3, 3), label="M*")
        lattice = survey_submodules(handle)
        proper = [s for s in lattice if 0 < s.dim < 6]
        expect = {basis_MstarP(GF3, 3, p) for p in ProjectivePoint.enumerate(GF3)}
        assert set(proper) == expect and len(proper) == 4


def test_criterion_07_composition_series():
    with criterion(7, "composition-series"):
        def run(ctx, n, names):
            chain = [submodule(x, ctx, n) for x in names]
            rep = composition_series(chain, gens_for(ctx, n))
            assert rep["conclusive"], (ctx, n, names, rep)
            assert rep["certified"], (ctx, n, names, rep)

        # (a) the square-zero module splits at (3, GF(5)): both refinements
        U = submodule("U", GF5, 3)
        M = submodule("MstarP:1,-1", GF5, 3)
        K = submodule("K", GF5, 3)
        assert (U & M).dim == 0 and (U | M) == K
        run(GF5, 3, ["0", "U", "K"])
        run(GF5, 3, ["0", "MstarP:1,-1", "K"])
        # (b) unique chain at (4, GF(3))
        run(GF3, 4, ["0", "MstarP:1,-1", "U", "K"])
        # (c) both commutative chains at (3, GF(4))
        run(GF4, 3, ["0", "MstarP:1,1", "U", "K", "C"])
        run(GF4, 3, ["0", "MstarP:1,1", "U", "N", "C"])
        # (d) three commutative chains at (4, GF(4))
        run(GF4, 4, ["0", "U", "K", "C"])
        run(GF4, 4, ["0", "MstarP:1,-1", "K", "C"])
        run(GF4, 4, ["0", "U", "N", "C"])


def test_criterion_08_semilinear_module():
    with criterion(8, "semilinear-module"):
        for ctx in (GF4, GF8):
            assert gamma2.eq15_identity_holds(ctx)
            for n in (3, 4):
                for c in gamma2.sigma_gmap_claims(Bases(ctx, n), gens_for(ctx, n)):
                    assert c["status"] == "verified", (ctx, n, c)
                for c in gamma2.verify_gamma_irreducible(gens_for(ctx, n), SEED):
                    assert c["status"] == "verified", (ctx, n, c)


def test_criterion_09_lattice_diagrams():
    with criterion(9, "lattice-diagrams"):
        cases = [
            (GF5, 3),   # char divides neither n-1 nor n+1
            (GF7, 3),
            (GF3, 4),   # char | n-1
            (GF5, 4),   # char | n+1 (with the kernel-of-psi claim)
            (GF4, 3),   # characteristic 2, odd n
            (GF4, 4),   # characteristic 2, even n
            (GF8, 3),
        ]
        seen = set()
        for ctx, n in cases:
            for c in verify_lattice_diagrams(Bases(ctx, n), gens_for(ctx, n)):
                assert c["status"] == "verified", (ctx, n, c["id"], c["data"])
                seen.add(c["id"])
        # every branch actually executed, with the stated dims at odd n
        assert {"MssSplit", "LambdaSplit",                      # generic
                "UplusMstar.dim", "MssOverU.split",             # char | n-1
                "kerPsi", "NplusMssOverMss.irr",                # char | n+1
                "TTplusMss.dim", "TTplusMss.proper",            # char 2, n odd
                "LambdaOverNplusMss.odd",
                "TTmeetMss.even", "LambdaOverNplusMss.even",    # char 2, n even
                "LambdaOverT", "KOverU", "COverN"} <= seen


def test_criterion_10_trace_kernel_biconditional():
    with criterion(10, "trace-kernel-biconditional"):
        pos = check_trace_biconditional(Bases(GF5, 4))
        assert pos["status"] == "verified" and pos["data"]["equal"]
        for ctx in (GF5, GF7):
            neg = check_trace_biconditional(Bases(ctx, 3))
            assert neg["status"] == "verified" and not neg["data"]["equal"]
            w = trace_kernel_witness(ctx, 3)
            assert predicate_Mstarstar(w)
            assert tr_op(w).is_zero() and not tr(w).is_zero()
