"""Unit tests of the repo-wide fault-injection framework (:mod:`repro.faults`).

These pin the framework's own contracts — registry enumeration, plan
parsing, trigger arithmetic, the cross-process marker latch — so the chaos
suites (``test_serve_chaos.py``, ``test_library_faults.py``) can rely on
them without re-proving the machinery in every scenario.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import (
    Fault,
    FaultPlan,
    InjectedCrash,
    InjectedError,
    declare_fault_points,
    fault_point,
    inject_faults,
    install_fault_hook,
    plan_from_env,
    record_fault_points,
    registered_fault_points,
)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def test_declared_points_are_enumerable_by_prefix():
    declare_fault_points("unit:alpha", "unit:beta", "other:gamma")
    assert registered_fault_points("unit:") == ["unit:alpha", "unit:beta"]
    assert registered_fault_points(("unit:", "other:")) == [
        "other:gamma",
        "unit:alpha",
        "unit:beta",
    ]
    # idempotent re-declaration
    declare_fault_points("unit:alpha")
    assert registered_fault_points("unit:") == ["unit:alpha", "unit:beta"]


def test_importing_subsystems_registers_their_points():
    import repro.library.store  # noqa: F401
    import repro.pipeline.stages  # noqa: F401
    import repro.serve.batcher  # noqa: F401
    import repro.serve.supervisor  # noqa: F401

    assert "append:ledger" in registered_fault_points("append:")
    assert "stream:advance" in registered_fault_points("stream:")
    assert set(registered_fault_points("serve:")) >= {
        "serve:warmup",
        "serve:advance",
        "serve:persist",
        "serve:cache-commit",
    }
    assert set(registered_fault_points("worker:")) >= {
        "worker:warmup",
        "worker:advance",
        "worker:send",
    }


# --------------------------------------------------------------------------- #
# triggering
# --------------------------------------------------------------------------- #
def test_fault_point_is_inert_without_a_hook():
    install_fault_hook(None)
    fault_point("unit:alpha")  # must not raise


def test_kill_fault_fires_on_its_hit_with_label_and_index():
    with inject_faults(Fault("unit:alpha", "kill", hits=2)) as plan:
        fault_point("unit:alpha")  # hit 1: armed for hit 2
        fault_point("unit:other")
        with pytest.raises(InjectedCrash) as crash:
            fault_point("unit:alpha")
    assert crash.value.label == "unit:alpha"
    assert crash.value.index == 3  # third traversal overall
    assert plan.counts() == {"unit:alpha": 2, "unit:other": 1}
    # the hook is uninstalled on exit
    fault_point("unit:alpha")


def test_error_and_delay_modes():
    with inject_faults(Fault("unit:err", "error")):
        with pytest.raises(InjectedError):
            fault_point("unit:err")
        fault_point("unit:err")  # hits=1 consumed: subsequent traversals pass

    with inject_faults(Fault("unit:slow", "delay", seconds=0.05)):
        t0 = time.monotonic()
        fault_point("unit:slow")
        assert time.monotonic() - t0 >= 0.05


def test_marker_makes_a_fault_one_shot_across_plans(tmp_path):
    marker = tmp_path / "fired"
    with inject_faults(Fault("unit:once", "kill", marker=marker)):
        with pytest.raises(InjectedCrash):
            fault_point("unit:once")
    assert marker.exists()
    # A fresh plan (simulating a restarted process inheriting the same
    # configuration) finds the marker and does not re-trigger.
    with inject_faults(Fault("unit:once", "kill", marker=marker)):
        fault_point("unit:once")


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault("unit:x", "explode")
    with pytest.raises(ValueError):
        Fault("unit:x", hits=0)


# --------------------------------------------------------------------------- #
# plans and environment parsing
# --------------------------------------------------------------------------- #
def test_plan_from_env_parses_modes_args_and_markers(tmp_path):
    marker = tmp_path / "m"
    plan = plan_from_env(
        f"a:b=kill@{marker}; c:d=delay:0.25 ; e:f=error;; g:h="
    )
    assert set(plan.faults) == {"a:b", "c:d", "e:f", "g:h"}
    assert plan.faults["a:b"].mode == "kill"
    assert str(plan.faults["a:b"].marker) == str(marker)
    assert plan.faults["c:d"].mode == "delay"
    assert plan.faults["c:d"].seconds == 0.25
    assert plan.faults["e:f"].mode == "error"
    assert plan.faults["g:h"].mode == "kill"  # empty spec defaults to kill


def test_plan_from_env_rejects_malformed_entries():
    assert plan_from_env("") is None
    assert plan_from_env("   ") is None
    with pytest.raises(ValueError):
        plan_from_env("no-equals-sign")
    with pytest.raises(ValueError):
        plan_from_env("a:b=nosuchmode")
    with pytest.raises(ValueError):
        plan_from_env("=kill")


def test_inject_faults_accepts_a_ready_plan_and_restores_previous_hook():
    outer = FaultPlan()
    install_fault_hook(outer)
    try:
        inner = FaultPlan(Fault("unit:nested", "error"))
        with inject_faults(inner) as installed:
            assert installed is inner
            with pytest.raises(InjectedError):
                fault_point("unit:nested")
        # previous hook restored, and it observed nothing in between
        fault_point("unit:after")
        assert outer.counts() == {"unit:after": 1}
    finally:
        install_fault_hook(None)


def test_record_fault_points_collects_traversal_order():
    with record_fault_points() as points:
        fault_point("unit:first")
        fault_point("unit:second")
        fault_point("unit:first")
    assert points == ["unit:first", "unit:second", "unit:first"]
    fault_point("unit:first")  # hook cleared
    assert points == ["unit:first", "unit:second", "unit:first"]
