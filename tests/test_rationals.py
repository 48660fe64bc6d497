"""Characteristic-zero spot checks on random rational inputs."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from algdeg.gfield import make_field
from algdeg.exactla import GroupElement, Matrix, Subspace
from algdeg.structvec import StructureVector, act, tr, tr_op
from algdeg.canon import (
    Bases, basis_Mstar, basis_U, expected_dims, intersection_table, submodule,
)
from algdeg.spinmx import (
    composition_series, module_handle, norton_irreducible, rational_generators,
    standard_generators, survey_submodules, verify_lattice_diagrams,
)
from oracles import dual_act, opposite

Q = make_field(0, 1)


def rand_rat(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))


def rand_invertible_q(n, rng):
    while True:
        m = Matrix.from_rows(Q, [[rand_rat(rng) for _ in range(n)] for _ in range(n)])
        try:
            return GroupElement(m, m.inverse())
        except ValueError:
            continue


def test_dimension_formulas_over_q():
    dims = expected_dims(3)
    for name in ("C", "K", "Mstar", "Mstarstar", "T", "Ttilde",
                 "TcapTtilde", "N", "U"):
        assert submodule(name, Q, 3).dim == dims[name]


def test_action_and_trace_identities_over_q():
    rng = random.Random(19)
    for _ in range(10):
        g = rand_invertible_q(3, rng)
        h = rand_invertible_q(3, rng)
        lam = StructureVector(Q, 3, [rand_rat(rng) for _ in range(27)])
        assert act(act(lam, g), h) == act(lam, g.compose(h))
        assert tr(act(lam, g)) == dual_act(tr(lam), g)
        assert opposite(act(lam, g)) == act(opposite(lam), g)
        assert tr_op(lam) == tr(opposite(lam))


def test_split_intersections_over_q():
    # characteristic 0 divides neither n-1 nor n+1: both intersections vanish
    U = basis_U(Q, 3)
    Ms = basis_Mstar(Q, 3)
    assert (U & Ms).dim == 0
    N = submodule("N", Q, 3)
    Mss = submodule("Mstarstar", Q, 3)
    assert (N & Mss).dim == 0
    assert (N | Mss) == Subspace.full(Q, 27)


def test_intersection_table_rejects_non_finite():
    with pytest.raises(ValueError):
        intersection_table(Bases(Q, 3))
    gf2 = make_field(2)
    with pytest.raises(ValueError):
        intersection_table(Bases(gf2, 3))
    with pytest.raises(ValueError, match=r"\|F\| > 2"):
        verify_lattice_diagrams(Bases(gf2, 3), standard_generators(gf2, 3))


def test_rational_generator_inverse_closure():
    gens = rational_generators(Q, 3)
    mats = {tuple(tuple(r) for r in g.mat.rows()) for g in gens.elements}
    for g in gens.elements:
        assert tuple(tuple(r) for r in g.inv.rows()) in mats


def test_the_kernel_vector_test_refuses_q_instead_of_crashing():
    # the random draws need a finite field: a ValueError naming Q, never a
    # TypeError from the draw itself
    gens = rational_generators(Q, 3)
    U = basis_U(Q, 3)
    h = module_handle(gens, U, label="U")
    for run in (lambda: norton_irreducible(h), lambda: survey_submodules(h),
                lambda: composition_series([Subspace.zero(Q, 27), U], gens)):
        with pytest.raises(ValueError, match="not Q"):
            run()
    # a line needs no draw, over Q too
    line = SimpleNamespace(ctx=Q, dim=1)
    assert norton_irreducible(line).detail == {"reason": "dimension 1"}
