"""The benchmark tracer (perfbench/tracing.py) wraps algdeg functions and
methods by name, so a deleted or renamed name breaks the traced benchmark run.
Installing it here makes that a Tier-1 failure as well."""

import os
import sys

from algdeg import canon, spinmx
from algdeg.gfield import make_field

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracing  # noqa: E402


def test_tracer_installs_over_every_wrapped_name():
    survey = spinmx.survey_submodules
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        ctx = make_field(3)
        gens = spinmx.standard_generators(ctx, 3)
        handle = spinmx.module_handle(gens, canon.submodule("Mstar", ctx, 3), label="M*")
        assert len(spinmx.survey_submodules(handle)) == 6
        assert spinmx.handle_spin(spinmx.dual_space_handle(gens), [1, 0, 0])[0].dim == 3
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracer.restore()
    assert metrics["spinmx.survey_members"] == 6
    assert metrics["spinmx.survey_lines"] == (3 ** 6 - 1) // 2
    assert metrics["spinmx.spin_calls"] == 1
    assert metrics["spinmx.handle_calls"] == 3      # dual_space_handle calls module_handle
    assert spinmx.survey_submodules is survey
