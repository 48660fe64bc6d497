"""`spinmx.hom_space` on torus weight blocks against the dense system.

`_dense_hom_space` is the solve the blocks replaced: every entry of X is an
unknown, and every (generator, i, j) gives a row of A X - X B.  It is kept
here as the reference: on graded handles the dense kernel is zero off the
weight blocks, so both systems have the same free columns, and
`kernel_rows` must return the same basis, entry for entry.  An ungraded or
mixed pair is one block, the dense system itself.
"""

import dataclasses

import pytest

from algdeg import spinmx
from algdeg.canon import Bases
from algdeg.exactla import kernel_rows
from algdeg.gfield import make_field
from algdeg.spinmx import (
    _transpose_rows, dual_space_handle, hom_space, module_handle, standard_generators,
    survey_submodules, verify_lattice_diagrams,
)
from test_packed import FIELDS
from test_spinmx import dimension_decided

GF3 = make_field(3)
BIG_FIELDS = [ctx for ctx in FIELDS if ctx.kind == "finite" and ctx.order > 2]


def _dense_hom_space(ha, hb):
    """The da*db system: row (i, j) is row i of A on slots j::db minus column j of B on block i."""
    if ha.ctx != hb.ctx or ha.gens != hb.gens or len(ha.action) != len(hb.action):
        raise ValueError(f"{ha.label!r} and {hb.label!r} are over different generator sets")
    ctx = ha.ctx
    da, db = ha.dim, hb.dim
    zero, one = ctx.zero(), ctx.one()
    rows = []
    for ga, gb in zip(ha.action, hb.action):
        cols = _transpose_rows(gb, ctx)
        for i in range(da):
            block = slice(i * db, (i + 1) * db)
            for j in range(db):
                row = [zero] * (da * db)
                row[j::db] = ga[i]
                row[block] = ctx.row_submul(row[block], cols[j], one)
                rows.append(row)
    basis = kernel_rows(rows, da * db, ctx)
    return len(basis), basis


def _ungraded(h):
    return dataclasses.replace(h, classes=None)


def _diagram_handles(ctx, n):
    """V* and the handles the paper's diagrams map into it, by label."""
    gens = standard_generators(ctx, n)
    b = Bases(ctx, n)
    v = dual_space_handle(gens)
    return v, {
        "V*": v,
        "M*": module_handle(gens, b["Mstar"], label="M*"),
        "U": module_handle(gens, b["U"], label="U"),
        "N": module_handle(gens, b["N"], label="N"),
        "Lambda/M**": module_handle(gens, b["Lambda"], sub=b["Mstarstar"], label="Lambda/M**"),
        "M**/M*": module_handle(gens, b["Mstarstar"], sub=b["Mstar"], label="M**/M*"),
    }


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("ctx", BIG_FIELDS, ids=repr)
def test_hom_into_the_dual_matches_the_dense_system(ctx, n):
    v, sources = _diagram_handles(ctx, n)
    assert v.classes is not None
    for label, h in sources.items():
        assert h.classes is not None, label
        got, want = hom_space(h, v), _dense_hom_space(h, v)
        assert got == want, label


@pytest.mark.parametrize("ctx", BIG_FIELDS, ids=repr)
def test_ungraded_and_mixed_pairs_match_the_dense_system(ctx):
    v, sources = _diagram_handles(ctx, 3)
    for label in ("V*", "U", "M**/M*"):
        h = sources[label]
        for pair in ((_ungraded(h), _ungraded(v)), (_ungraded(h), v), (h, _ungraded(v))):
            assert hom_space(*pair) == _dense_hom_space(*pair), label


@pytest.mark.parametrize("module,ctx,npairs", [
    ("K", GF3, None), ("Mstarstar", GF3, None),
    ("Lambda", make_field(2), 194),          # one weight class: the whole system
    ("Lambda", make_field(2, 2), 72),
    ("Mstarstar", make_field(3, 2), 27),     # list rows
], ids=["K", "Mstarstar", "Lambda-GF2", "Lambda-GF4", "Mstarstar-GF9"])
def test_survey_pairs_match_the_dense_system(module, ctx, npairs, monkeypatch):
    # every (simple type, quotient) pair the survey at n = 3 solves, and each
    # pair it no longer solves: a type against M/U for a member U whose
    # quotient is simple by its dimension
    gens = standard_generators(ctx, 3)
    h = module_handle(gens, Bases(ctx, 3)[module], label=module)
    pairs = []

    def record(ha, hb):
        pairs.append((ha, hb))
        return hom_space(ha, hb)

    monkeypatch.setattr(spinmx, "hom_space", record)
    lattice = survey_submodules(h)
    assert len(lattice) > 2 and pairs
    assert npairs is None or len(pairs) == npairs
    types, decided = dimension_decided(h)
    pairs += [(t, top) for _, top in decided for t in types]
    for ha, hb in pairs:
        assert ha.classes is not None and hb.classes is not None
        assert hom_space(ha, hb) == _dense_hom_space(ha, hb), (ha.label, hb.label)


@pytest.fixture
def solves(monkeypatch):
    """The (ncols, rows) of every `kernel_rows` call made inside `spinmx.hom_space`,
    not the kernel-vector test's, whose blocks may be 1 x 1."""
    seen, inside = [], []

    def record(rows, ncols, ctx):
        if inside:
            seen.append((ncols, rows))
        return kernel_rows(rows, ncols, ctx)

    def solving(ha, hb):
        inside.append(True)
        try:
            return hom_space(ha, hb)
        finally:
            inside.pop()

    monkeypatch.setattr(spinmx, "kernel_rows", record)
    monkeypatch.setattr(spinmx, "hom_space", solving)
    return seen


def test_hom_into_the_dual_at_8_solves_only_the_weight_blocks(solves):
    # 3 | n + 1: N and Lambda/M** have dimension 280 and V* has 8, so the
    # dense system would have 2240 unknowns; the blocks hold 112
    ctx, n = GF3, 8
    gens = standard_generators(ctx, n)
    b = Bases(ctx, n)
    v = dual_space_handle(gens)
    for h in (module_handle(gens, b["N"], label="N"),
              module_handle(gens, b["Lambda"], sub=b["Mstarstar"], label="Lambda/M**")):
        solves.clear()
        assert h.dim * v.dim == 2240
        dim, basis = spinmx.hom_space(h, v)
        assert [ncols for ncols, _ in solves] == [112]
        assert len(solves[0][1]) <= 112      # the echelon's rows, not one per equation
        assert all(any(row) for row in solves[0][1])
        assert dim == len(basis) and all(len(x) == 2240 for x in basis)


@pytest.mark.parametrize("ctx,n", [(GF3, 4), (make_field(5), 4), (make_field(2, 2), 3)],
                         ids=repr)
def test_diagram_claims_match_the_dense_system(ctx, n, solves, monkeypatch):
    # (4, GF(3)) and (3, GF(4)) solve hom(U, V*) and hom(M**/M*, V*), and
    # (4, GF(5)), where 5 | n + 1, hom(N, V*) and hom(Lambda/M**, V*): both
    # branches of the diagrams solve on the blocks
    gens = standard_generators(ctx, n)
    new = verify_lattice_diagrams(Bases(ctx, n), gens)
    assert solves and all(any(row) for _, rows in solves for row in rows)
    monkeypatch.setattr(spinmx, "hom_space", _dense_hom_space)
    assert verify_lattice_diagrams(Bases(ctx, n), gens) == new
