"""The condensed irreducibility test on graded module handles.

Over a finite field the standard generators grade every handle of the
structure space by torus weight (the dual among them, as the piece
M*_(1,0)), and `norton_irreducible` reads each draw on its smallest weight
class only.  These tests hold that verdict against the uncondensed test
(the same handle with its classes dropped), check that a one-vector class
takes no draw, that a basis which is not graded is refused, and that
`verify-all` over GF(25) verifies at every seed.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

import algdeg
from algdeg import spinmx
from algdeg.canon import Bases, basis_K, basis_N, basis_U
from algdeg.cli import main
from algdeg.degen import _class_projector, weights
from algdeg.gamma2 import gamma_handle
from algdeg.gfield import make_field
from algdeg.spinmx import (
    _restricted_handle, _smallest_class, _structvec_appliers, dual_space_handle,
    module_handle, norton_irreducible, rational_generators, standard_generators,
    survey_submodules,
)
from algdeg.structvec import StructureVector, act, flat, torus_weights, weight_classes
from test_packed import FIELDS

FINITE = [make_field(2)] + [ctx for ctx in FIELDS if ctx.kind == "finite"]

# (label, carrier, sub) at n = 3: U, N and M*, the quotient by M** of the
# neither branch, the factors over M* of the char | n-1 branch, the factor
# (N + M**)/M** of the char | n+1 branch and the factors of the char 2 block
QUOTIENTS = [
    ("U", "U", None), ("N", "N", None), ("M*", "Mstar", None),
    ("Lambda/M**", "Lambda", "Mstarstar"),
    ("(U+M*)/M*", "U+Mstar", "Mstar"), ("M**/M*", "Mstarstar", "Mstar"),
    ("(N+M**)/M**", "N+Mstarstar", "Mstarstar"),
    ("Lambda/(N+M**)", "Lambda", "N+Mstarstar"),
    ("(TT+M**)/(N+M**)", "TcapTtilde+Mstarstar", "N+Mstarstar"),
    ("Lambda/(TT+M**)", "Lambda", "TcapTtilde+Mstarstar"),
]


def _member(bases, name):
    if name is None:
        return None
    parts = [bases[p] for p in name.split("+")]
    out = parts[0]
    for p in parts[1:]:
        out = out | p
    return out


@pytest.mark.parametrize("ctx", FINITE, ids=repr)
def test_graded_verdict_matches_the_random_one_at_n3(ctx):
    gens = standard_generators(ctx, 3)
    bases = Bases(ctx, 3)
    handles = [dual_space_handle(gens)]
    for label, carrier, sub in QUOTIENTS:
        top, bottom = _member(bases, carrier), _member(bases, sub)
        if bottom is None or bottom < top:
            handles.append(module_handle(gens, top, sub=bottom, label=label))
    for h in handles:
        assert h.classes is not None and len(h.classes) == h.dim
        graded = norton_irreducible(h)
        drawn = norton_irreducible(dataclasses.replace(h, classes=None))
        assert drawn.verdict in ("irreducible", "reducible"), h.label
        assert graded.verdict == drawn.verdict, h.label
        # the draws are condensed wherever the torus has two classes (over
        # GF(2) the one class is every vector), and a one-vector class draws none
        k = len(_smallest_class(h))
        assert (k == h.dim) == (ctx.order == 2 or h.dim == 1), h.label
        assert ("attempt" in graded.detail) == (k > 1), h.label
        if graded.verdict == "reducible":
            assert 0 < graded.witness.dim - (h.sub.dim if h.sub else 0) < h.dim


@pytest.mark.parametrize("ctx", [make_field(3), make_field(2, 2), make_field(5)], ids=repr)
def test_survey_quotients_carry_the_base_grading(ctx, monkeypatch):
    gens = standard_generators(ctx, 3)
    h = module_handle(gens, basis_K(ctx, 3), label="K")
    seen = []

    def recording(handle):
        seen.append(handle)
        return norton_irreducible(handle)

    monkeypatch.setattr(spinmx, "norton_irreducible", recording)
    survey_submodules(h)
    assert seen and all(q.classes is not None for q in seen)
    # the quotient handles live in K's coordinates, whose classes they read
    for q in seen:
        for rep, c in zip(q.reps, q.classes):
            assert {h.classes[f] for f, x in enumerate(rep) if x} == {c}


def test_graded_test_draws_nothing(monkeypatch):
    # U over GF(7) has a one-vector class: every draw's block is a scalar b,
    # and the shift at b has that unit vector as its kernel on both sides
    ctx = make_field(7)
    h = module_handle(standard_generators(ctx, 3), basis_U(ctx, 3), label="U")
    assert len(_smallest_class(h)) == 1
    monkeypatch.setattr(spinmx, "_random_envelope",
                        lambda handle, rng, block: pytest.fail("a one-vector class drew"))
    res = norton_irreducible(h)
    assert res.verdict == "irreducible" and res.detail == {"nullity": 1}


def test_a_smallest_class_over_the_line_cap_takes_the_draws(monkeypatch):
    # N over GF(3): the smallest class has 3 vectors, and at a line cap of 0
    # its lines are never spun one by one; every draw is condensed to the
    # class and decides at a shift of nullity 1
    ctx = make_field(3)
    h = module_handle(standard_generators(ctx, 3), basis_N(ctx, 3), label="N")
    block = _smallest_class(h)
    assert 1 < len(block) < h.dim
    blocks, envelope = [], spinmx._random_envelope

    def recording(handle, rng, block):
        blocks.append(block)
        return envelope(handle, rng, block)

    monkeypatch.setattr(spinmx, "_random_envelope", recording)
    monkeypatch.setattr(spinmx, "LINE_CAP", 0)
    res = norton_irreducible(h)
    assert res.verdict == "irreducible" and res.detail["nullity"] == 1
    assert blocks and all(b == block for b in blocks)


def test_classes_are_mod_q_minus_one():
    gf4, gf7, q = make_field(2, 2), make_field(7), make_field(0, 1)
    # 112 has weight (2, -1, 0) and 221 has (-1, 2, 0): one class mod 3 only
    f112, f221 = flat(3, 1, 1, 2), flat(3, 2, 2, 1)
    assert weight_classes(q, 3)[f112] == (2, -1, 0)
    assert weight_classes(q, 3)[f221] == (-1, 2, 0)
    assert weight_classes(gf4, 3)[f112] == weight_classes(gf4, 3)[f221] == (2, 2, 0)
    assert weight_classes(gf7, 3)[f112] == (2, 5, 0)
    assert weight_classes(gf7, 3)[f221] == (5, 2, 0)
    assert set(weight_classes(make_field(2), 3)) == {(0, 0, 0)}
    assert weight_classes(gf7, 3) is weight_classes(gf7, 3)
    assert weight_classes(q, 3) == torus_weights(3)
    # unit vector e_k of the dual has weight e_k
    assert dual_space_handle(standard_generators(gf7, 3)).classes == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert set(dual_space_handle(standard_generators(make_field(2), 3)).classes) == {
        (0, 0, 0)}


def test_torus_weights_are_the_weights_at_the_unit_sequences():
    # the r-th entry of coordinate ijk's weight is its weight q_i + q_j - q_k at q = e_r
    for n in (2, 3, 4):
        at_units = zip(*(weights([int(m == r) for m in range(n)]) for r in range(n)))
        assert torus_weights(n) == tuple(at_units)


@pytest.mark.parametrize("ctx", [c for c in FINITE if c.order >= 5], ids=repr)
def test_reach_probe_classes_are_the_exact_weight_classes_from_gf5_on(ctx):
    # degen's projectors separate the exact weights e_i + e_j - e_k, whose
    # entries -1..2 stay distinct mod |F| - 1 >= 4: each fixes the unit
    # vectors of f's exact weight and kills the others
    exact, classes = weight_classes(make_field(0, 1), 3), weight_classes(ctx, 3)
    for f in range(27):
        cls = [g for g in range(27) if exact[g] == exact[f]]
        assert cls == [g for g in range(27) if classes[g] == classes[f]]
        projector = _class_projector(ctx, 3, f)
        assert projector
        for g in range(27):
            v = StructureVector(ctx, 3, [int(h == g) for h in range(27)])
            image = v
            for e, a, s in projector:
                image = (act(image, e) - image.scale(a)).scale(s)
            assert image == (v if g in cls else v.scale(ctx.zero()))


def _refuse_coordinate_grading():
    """K's handle under a grading by coordinate, finer than the torus's: a rep
    with two coordinates in its support is refused."""
    ctx = make_field(5)
    gens = standard_generators(ctx, 3)
    K = basis_K(ctx, 3)
    assert any(sum(1 for x in row if x) > 1 for row in K.rows)
    try:
        _restricted_handle(gens, _structvec_appliers(gens), K, None, "K",
                           tuple((f,) for f in range(27)))
    except ValueError as e:
        return str(e)
    return None


def test_a_rep_that_is_not_a_weight_vector_is_refused():
    assert _refuse_coordinate_grading() == "a basis vector of 'K' is not a torus weight vector"


def test_the_weight_vector_check_holds_under_python_O():
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, {tests!r})
        from test_graded_norton import _refuse_coordinate_grading
        print(json.dumps({{"optimize": sys.flags.optimize,
                          "error": _refuse_coordinate_grading()}}))
    """).format(tests=os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(algdeg.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out == {"optimize": 1,
                   "error": "a basis vector of 'K' is not a torus weight vector"}


def test_rational_and_semilinear_handles_stay_ungraded():
    Q = make_field(0, 1)
    gens = rational_generators(Q, 3)
    h = module_handle(gens, basis_U(Q, 3), label="U")
    assert h.classes is None
    assert dual_space_handle(gens).classes is None
    # the semilinear module is built without classes, and takes the draws
    h = gamma_handle(standard_generators(make_field(2, 3), 3))
    assert h.classes is None
    assert "attempt" in norton_irreducible(h).detail


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_verify_all_over_gf25_at_n3_verifies_at_every_seed(seed, tmp_path, capsys):
    path = tmp_path / "r.json"
    assert main(["--json", str(path), "--no-timing", "verify-all", "--n-list", "3",
                 "--fields", "5^2", "--seed", str(seed)]) == 0
    capsys.readouterr()
