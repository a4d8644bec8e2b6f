"""FaultPlan semantics: validation, triggers, determinism."""

import numpy as np
import pytest

from repro.chaos import (
    FAULT_ERRORS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    active_plan,
    chaos,
    chaos_check,
    install_plan,
)
from repro.errors import (
    ChaosError,
    DeviceMemoryError,
    TransferError,
    TransientKernelError,
)


class TestFaultSpecValidation:
    def test_unknown_fault_type(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="cuda.alloc", fault="meltdown", nth=1)

    def test_no_trigger(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="cuda.alloc", fault="oom")

    def test_two_triggers(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="cuda.alloc", fault="oom", nth=1, prob=0.5)

    def test_bad_nth(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="cuda.alloc", fault="oom", nth=0)

    def test_bad_prob(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="cuda.alloc", fault="oom", prob=1.5)

    def test_bad_max_fires(self):
        with pytest.raises(ChaosError):
            FaultSpec(site="cuda.alloc", fault="oom", nth=1, max_fires=0)

    def test_plan_rejects_non_spec(self):
        with pytest.raises(ChaosError):
            FaultPlan([object()])


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultSpec(site="cuda.h2d", fault="transfer", nth=3)])
        plan.check("cuda.h2d")
        plan.check("cuda.h2d")
        with pytest.raises(TransferError):
            plan.check("cuda.h2d")
        # past the nth call the rule stays quiet
        for _ in range(10):
            plan.check("cuda.h2d")
        assert plan.n_fired == 1

    def test_every_spec_counts_every_matching_call(self):
        """A rule that fires does not stop the rules after it from
        counting the call: nth=3, 4, 5 fire at calls 3, 4 and 5."""
        plan = FaultPlan([
            FaultSpec(site="x", fault="transient", nth=n) for n in (3, 4, 5)
        ])
        failed = []
        for call in range(1, 9):
            try:
                plan.check("x")
            except TransientKernelError:
                failed.append(call)
        assert failed == [3, 4, 5]
        assert [ev.call_index for ev in plan.log] == [3, 4, 5]

    def test_one_call_fires_several_specs_raises_the_first(self):
        plan = FaultPlan([
            FaultSpec(site="x", fault="transfer", nth=2),
            FaultSpec(site="x", fault="oom", nth=2),
        ])
        plan.check("x")
        with pytest.raises(TransferError, match=r"\[spec 0, call 2\]"):
            plan.check("x")
        # both rules spent their fire on that call
        assert [(ev.spec_index, ev.call_index) for ev in plan.log] == [
            (0, 2), (1, 2),
        ]
        plan.check("x")

    def test_after_bytes_threshold(self):
        plan = FaultPlan(
            [FaultSpec(site="cuda.alloc", fault="oom", after_bytes=100)]
        )
        plan.check("cuda.alloc", nbytes=40)
        plan.check("cuda.alloc", nbytes=40)
        with pytest.raises(DeviceMemoryError):
            plan.check("cuda.alloc", nbytes=40)

    def test_prob_one_fires_up_to_max(self):
        plan = FaultPlan(
            [FaultSpec(site="cusparse.csrmv", fault="transient",
                       prob=1.0, max_fires=2)]
        )
        for _ in range(2):
            with pytest.raises(TransientKernelError):
                plan.check("cusparse.csrmv")
        plan.check("cusparse.csrmv")  # cap reached
        assert plan.n_fired == 2

    def test_site_glob_and_stage_filter(self):
        plan = FaultPlan(
            [FaultSpec(site="cuda.kernel:*", fault="transient",
                       nth=1, stage="kmeans")]
        )
        plan.check("cuda.kernel:UpdateData", stage="similarity")
        plan.check("cuda.h2d", stage="kmeans")
        with pytest.raises(TransientKernelError):
            plan.check("cuda.kernel:AssignClusters", stage="kmeans")

    def test_fault_types_map_to_typed_errors(self):
        for fault, err in FAULT_ERRORS.items():
            plan = FaultPlan([FaultSpec(site="x", fault=fault, nth=1)])
            with pytest.raises(err):
                plan.check("x")


class TestDeterminism:
    def _drive(self, plan, n=200):
        fired = []
        for i in range(n):
            try:
                plan.check("cuda.kernel:K", stage="kmeans", nbytes=64)
            except tuple(FAULT_ERRORS.values()):
                fired.append(i)
        return fired, [
            (e.site, e.stage, e.fault, e.spec_index, e.call_index)
            for e in plan.schedule
        ]

    def test_same_seed_same_schedule(self):
        specs = [
            FaultSpec(site="cuda.kernel:*", fault="transient",
                      prob=0.05, max_fires=None)
        ]
        a = self._drive(FaultPlan(specs, seed=42))
        b = self._drive(FaultPlan(specs, seed=42))
        assert a == b
        assert a[0]  # the probabilistic rule actually fired

    def test_different_seed_different_schedule(self):
        specs = [
            FaultSpec(site="cuda.kernel:*", fault="transient",
                      prob=0.05, max_fires=None)
        ]
        a = self._drive(FaultPlan(specs, seed=1))
        b = self._drive(FaultPlan(specs, seed=2))
        assert a != b

    def test_reset_replays_identically(self):
        plan = FaultPlan(
            [FaultSpec(site="*", fault="transient", prob=0.1, max_fires=None)],
            seed=7,
        )
        a = self._drive(plan)
        plan.reset()
        b = self._drive(plan)
        assert a == b

    def test_from_seed_deterministic(self):
        a = FaultPlan.from_seed(99)
        b = FaultPlan.from_seed(99)
        assert a.specs == b.specs
        assert len(a.specs) == 3

    def test_from_seed_rejects_zero_faults(self):
        with pytest.raises(ChaosError):
            FaultPlan.from_seed(0, n_faults=0)

    def test_negative_seed_rejected_with_typed_error(self):
        # surfaced by CLI `--chaos -1`: must be ChaosError, not a numpy
        # ValueError traceback
        with pytest.raises(ChaosError):
            FaultPlan.from_seed(-1)
        with pytest.raises(ChaosError):
            FaultPlan([FaultSpec(site="x", fault="oom", nth=1)], seed=-1)


class TestRuntimeInstallation:
    def test_no_plan_is_noop(self):
        install_plan(None)
        chaos_check("cuda.alloc", nbytes=10**12)  # nothing raises

    def test_context_scopes_plan(self):
        plan = FaultPlan([FaultSpec(site="cuda.h2d", fault="transfer", nth=1)])
        assert active_plan() is None
        with chaos(plan):
            assert active_plan() is plan
            with pytest.raises(TransferError):
                chaos_check("cuda.h2d")
        assert active_plan() is None
        chaos_check("cuda.h2d")  # uninstalled again

    def test_event_log_records_context(self):
        plan = FaultPlan([FaultSpec(site="cuda.d2h", fault="transfer", nth=2)])
        with chaos(plan):
            chaos_check("cuda.d2h", nbytes=8)
            with pytest.raises(TransferError):
                chaos_check("cuda.d2h", nbytes=8)
        (ev,) = plan.schedule
        assert isinstance(ev, FaultEvent)
        assert ev.site == "cuda.d2h"
        assert ev.call_index == 2
