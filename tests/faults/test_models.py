"""Tests for repro.faults.models (classical fault behaviours)."""

import pytest

from repro.faults.models import (
    DataRetentionFault,
    DeceptiveReadDestructiveFault,
    DisturbCouplingFault,
    FaultFree,
    IdempotentCouplingFault,
    IncorrectReadFault,
    InversionCouplingFault,
    MemoryState,
    MultipleAccessFault,
    NoAccessFault,
    ReadDestructiveFault,
    StateCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
    WriteDisturbFault,
    WrongAccessFault,
)


@pytest.fixture
def mem():
    return MemoryState(8)


class TestMemoryState:
    def test_starts_unknown(self, mem):
        assert all(mem.get(a) == MemoryState.UNKNOWN for a in range(8))

    def test_set_get(self, mem):
        mem.set(3, 1)
        assert mem.get(3) == 1

    def test_reset(self, mem):
        mem.set(0, 1)
        mem.touch(0, 5)
        mem.reset()
        assert mem.get(0) == MemoryState.UNKNOWN
        assert mem.last_access_cycle[0] == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MemoryState(0)


class TestFaultFree:
    def test_write_then_read(self, mem):
        f = FaultFree()
        f.write(mem, 2, 1, 0)
        assert f.read(mem, 2, 1) == 1


class TestStuckAt:
    def test_writes_ignored(self, mem):
        f = StuckAtFault(cell=1, value=0)
        f.write(mem, 1, 1, 0)
        assert f.read(mem, 1, 1) == 0

    def test_other_cells_unaffected(self, mem):
        f = StuckAtFault(cell=1, value=0)
        f.write(mem, 2, 1, 0)
        assert f.read(mem, 2, 1) == 1


class TestTransition:
    def test_rising_blocked(self, mem):
        f = TransitionFault(cell=0, rising=True)
        f.write(mem, 0, 0, 0)
        f.write(mem, 0, 1, 1)   # blocked
        assert f.read(mem, 0, 2) == 0

    def test_falling_still_works_for_rising_tf(self, mem):
        f = TransitionFault(cell=0, rising=True)
        f.write(mem, 0, 0, 0)   # init
        # 0 -> 0 fine; directly writing 0 over unknown also fine
        assert f.read(mem, 0, 1) == 0

    def test_falling_blocked(self, mem):
        f = TransitionFault(cell=0, rising=False)
        f.write(mem, 0, 1, 0)
        f.write(mem, 0, 0, 1)   # blocked
        assert f.read(mem, 0, 2) == 1


class TestStuckOpen:
    def test_read_returns_previous_sensed(self, mem):
        f = StuckOpenFault(cell=2)
        f.write(mem, 1, 1, 0)
        assert f.read(mem, 1, 1) == 1      # sense amp now holds 1
        f.write(mem, 2, 0, 2)              # lost
        assert f.read(mem, 2, 3) == 1      # returns stale sensed value

    def test_reset_clears_sense_state(self, mem):
        f = StuckOpenFault(cell=2)
        f.write(mem, 1, 1, 0)
        f.read(mem, 1, 1)
        f.reset()
        assert f.read(mem, 2, 2) == 0


class TestReadFaults:
    def test_rdf_flips_and_returns_flipped(self, mem):
        f = ReadDestructiveFault(cell=0)
        f.write(mem, 0, 0, 0)
        assert f.read(mem, 0, 1) == 1
        assert mem.get(0) == 1

    def test_drdf_returns_correct_but_flips(self, mem):
        f = DeceptiveReadDestructiveFault(cell=0)
        f.write(mem, 0, 0, 0)
        assert f.read(mem, 0, 1) == 0      # looks fine
        assert f.read(mem, 0, 2) == 1      # second read exposes it

    def test_irf_wrong_value_state_intact(self, mem):
        f = IncorrectReadFault(cell=0)
        f.write(mem, 0, 1, 0)
        assert f.read(mem, 0, 1) == 0
        assert mem.get(0) == 1

    def test_wdf_non_transition_write_flips(self, mem):
        f = WriteDisturbFault(cell=0)
        f.write(mem, 0, 1, 0)
        f.write(mem, 0, 1, 1)   # w1 on 1 -> disturb
        assert f.read(mem, 0, 2) == 0


class TestCouplingFaults:
    def test_cfin_inverts_victim_on_transition(self, mem):
        f = InversionCouplingFault(aggressor=0, victim=1, rising=True)
        f.write(mem, 1, 0, 0)
        f.write(mem, 0, 0, 1)
        f.write(mem, 0, 1, 2)   # rising transition
        assert f.read(mem, 1, 3) == 1

    def test_cfin_no_effect_without_transition(self, mem):
        f = InversionCouplingFault(aggressor=0, victim=1, rising=True)
        f.write(mem, 1, 0, 0)
        f.write(mem, 0, 1, 1)   # unknown -> 1: not a 0->1 transition
        assert f.read(mem, 1, 2) == 0

    def test_cfid_forces_value(self, mem):
        f = IdempotentCouplingFault(0, 1, rising=False, forced_value=1)
        f.write(mem, 1, 0, 0)
        f.write(mem, 0, 1, 1)
        f.write(mem, 0, 0, 2)   # falling transition
        assert f.read(mem, 1, 3) == 1

    def test_cfst_forces_while_state_held(self, mem):
        f = StateCouplingFault(0, 1, aggressor_state=1, forced_value=0)
        f.write(mem, 0, 1, 0)
        f.write(mem, 1, 1, 1)
        assert f.read(mem, 1, 2) == 0

    def test_cfst_inactive_in_other_state(self, mem):
        f = StateCouplingFault(0, 1, aggressor_state=1, forced_value=0)
        f.write(mem, 0, 0, 0)
        f.write(mem, 1, 1, 1)
        assert f.read(mem, 1, 2) == 1

    def test_cfdst_read_disturbs(self, mem):
        f = DisturbCouplingFault(0, 1, forced_value=1)
        f.write(mem, 1, 0, 0)
        f.write(mem, 0, 0, 1)
        f.read(mem, 0, 2)
        assert f.read(mem, 1, 3) == 1

    def test_same_cell_rejected(self):
        with pytest.raises(ValueError):
            InversionCouplingFault(1, 1, rising=True)
        with pytest.raises(ValueError):
            StateCouplingFault(2, 2, 0, 0)


class TestDataRetention:
    def test_decays_after_idle(self, mem):
        f = DataRetentionFault(cell=0, decay_value=0, retention_cycles=5)
        f.write(mem, 0, 1, 0)
        assert f.read(mem, 0, 3) == 1     # still fresh
        assert f.read(mem, 0, 100) == 0   # decayed

    def test_refresh_by_access(self, mem):
        f = DataRetentionFault(cell=0, decay_value=0, retention_cycles=5)
        f.write(mem, 0, 1, 0)
        f.read(mem, 0, 4)   # touch refreshes the timer
        assert f.read(mem, 0, 8) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DataRetentionFault(0, 0, retention_cycles=0)


class TestAddressFaults:
    def test_no_access_write_lost(self, mem):
        f = NoAccessFault(address=1, float_value=1)
        f.write(mem, 1, 0, 0)
        assert f.read(mem, 1, 1) == 1     # floating value

    def test_wrong_access_redirects(self, mem):
        f = WrongAccessFault(address=0, actual_cell=3)
        f.write(mem, 0, 1, 0)
        assert mem.get(3) == 1
        assert mem.get(0) == MemoryState.UNKNOWN
        assert f.read(mem, 0, 1) == 1

    def test_multiple_access_write_hits_all(self, mem):
        f = MultipleAccessFault(address=0, extra_cells=(2,))
        f.write(mem, 0, 1, 0)
        assert mem.get(0) == 1 and mem.get(2) == 1

    def test_multiple_access_read_wire_ands(self, mem):
        f = MultipleAccessFault(address=0, extra_cells=(2,))
        f.write(mem, 0, 1, 0)
        f.write(mem, 2, 0, 1)
        assert f.read(mem, 0, 2) == 0     # 1 & 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WrongAccessFault(1, 1)
        with pytest.raises(ValueError):
            MultipleAccessFault(1, ())
        with pytest.raises(ValueError):
            MultipleAccessFault(1, (1,))
