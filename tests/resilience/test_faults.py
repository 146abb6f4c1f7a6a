"""The fault-injection harness itself: specs, plans, proxies."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.exceptions import FaultConfigError, ProcessKilled
from repro.resilience import FaultPlan, FaultSpec, active_plan
from repro.storage.queries import connect


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="db.execute", kind="gremlins", at=0)

    def test_retired_stall_kind_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="sweep.step", kind="stall", at=0)

    def test_at_and_probability_mutually_exclusive(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="db.execute", kind="locked", at=0, probability=0.5)

    def test_one_of_at_or_probability_required(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="db.execute", kind="locked")

    def test_negative_at_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="db.execute", kind="locked", at=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="db.execute", kind="locked", at=0, count=0)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(site="db.execute", kind="locked", probability=1.5)

    def test_non_spec_in_plan_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultPlan([("db.execute", "locked", 0)])


class TestScriptedFiring:
    def test_fires_exactly_at_visit(self):
        plan = FaultPlan([FaultSpec(site="s", kind="locked", at=2)])
        plan.check("s")
        plan.check("s")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            plan.check("s")
        plan.check("s")
        assert plan.fired == (("s", 2, "locked"),)

    def test_count_spans_consecutive_visits(self):
        plan = FaultPlan([FaultSpec(site="s", kind="locked", at=0, count=3)])
        for _ in range(3):
            with pytest.raises(sqlite3.OperationalError):
                plan.check("s")
        plan.check("s")
        assert plan.visits("s") == 4

    def test_disk_full_message(self):
        plan = FaultPlan([FaultSpec(site="s", kind="disk_full", at=0)])
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            plan.check("s")

    def test_kill_raises_process_killed(self):
        plan = FaultPlan([FaultSpec(site="s", kind="kill", at=0)])
        with pytest.raises(ProcessKilled) as info:
            plan.check("s")
        assert info.value.site == "s"

    def test_sites_are_independent(self):
        plan = FaultPlan([FaultSpec(site="a", kind="locked", at=0)])
        plan.check("b")
        with pytest.raises(sqlite3.OperationalError):
            plan.check("a")

    def test_seeded_probability_is_replayable(self):
        def run(seed):
            plan = FaultPlan(
                [FaultSpec(site="s", kind="locked", probability=0.5)],
                seed=seed,
            )
            fired = []
            for _ in range(50):
                try:
                    plan.check("s")
                    fired.append(False)
                except sqlite3.OperationalError:
                    fired.append(True)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert any(run(7))

    def test_data_kind_at_raising_site_is_a_plan_bug(self):
        plan = FaultPlan([FaultSpec(site="s", kind="corrupt", at=0)])
        with pytest.raises(FaultConfigError):
            plan.check("s")


class TestByteAndArraySites:
    def test_corrupt_flips_exactly_one_byte(self):
        plan = FaultPlan([FaultSpec(site="b", kind="corrupt", at=0)], seed=1)
        data = bytes(range(64))
        out = plan.corrupt_bytes("b", data)
        assert len(out) == len(data)
        diffs = [i for i, (x, y) in enumerate(zip(data, out)) if x != y]
        assert len(diffs) == 1
        assert out[diffs[0]] == data[diffs[0]] ^ 0xFF

    def test_clean_visit_passes_bytes_through(self):
        plan = FaultPlan()
        data = b"payload"
        assert plan.corrupt_bytes("b", data) is data

    def test_raising_kind_at_byte_site_raises(self):
        plan = FaultPlan([FaultSpec(site="b", kind="disk_full", at=0)])
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            plan.corrupt_bytes("b", b"data")

    def test_nan_poisons_one_element_without_mutating_input(self):
        plan = FaultPlan([FaultSpec(site="a", kind="nan", at=0)], seed=3)
        array = np.arange(10, dtype=np.float64)
        out = plan.poison_array("a", array)
        assert np.isfinite(array).all()
        assert np.isnan(out).sum() == 1

    def test_scale_produces_finite_divergence(self):
        plan = FaultPlan([FaultSpec(site="a", kind="scale", at=0)], seed=3)
        array = np.ones(10, dtype=np.float64)
        out = plan.poison_array("a", array)
        assert np.isfinite(out).all()
        assert (out != array).sum() == 1

    def test_clean_visit_passes_array_through(self):
        plan = FaultPlan()
        array = np.ones(4)
        assert plan.poison_array("a", array) is array


class TestActivation:
    def test_activate_installs_and_restores(self):
        plan = FaultPlan()
        assert active_plan() is None
        with plan.activate() as active:
            assert active is plan
            assert active_plan() is plan
        assert active_plan() is None

    def test_activation_nests(self):
        outer, inner = FaultPlan(), FaultPlan()
        with outer.activate():
            with inner.activate():
                assert active_plan() is inner
            assert active_plan() is outer

    def test_restored_after_exception(self):
        plan = FaultPlan()
        with pytest.raises(RuntimeError):
            with plan.activate():
                raise RuntimeError("boom")
        assert active_plan() is None


class TestFaultProxy:
    def test_execute_fault_fires_through_connection(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="db.execute", kind="locked", at=1)])
        with plan.activate():
            connection = connect(str(tmp_path / "p.sqlite"))
            connection.execute("CREATE TABLE t (x)")
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                connection.execute("INSERT INTO t VALUES (1)")
            connection.close()

    def test_commit_fault_fires(self, tmp_path):
        plan = FaultPlan([FaultSpec(site="db.commit", kind="disk_full", at=0)])
        with plan.activate():
            connection = connect(str(tmp_path / "p.sqlite"))
            connection.execute("CREATE TABLE t (x)")
            with pytest.raises(sqlite3.OperationalError, match="disk is full"):
                connection.commit()
            connection.close()

    def test_attributes_delegate(self, tmp_path):
        plan = FaultPlan()
        with plan.activate():
            connection = connect(str(tmp_path / "p.sqlite"))
            assert connection.row_factory is sqlite3.Row
            assert connection.in_transaction is False
            connection.close()

    def test_no_proxy_without_active_plan(self, tmp_path):
        connection = connect(str(tmp_path / "p.sqlite"))
        assert isinstance(connection, sqlite3.Connection)
        connection.close()
