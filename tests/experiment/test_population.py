"""Tests for repro.experiment.population."""

import numpy as np
import pytest

from repro.defects.distribution import DefectDensity
from repro.defects.models import Defect, DefectKind
from repro.experiment import population
from repro.experiment.population import PopulationGenerator, PopulationSpec


@pytest.fixture(scope="module")
def small_lot():
    spec = PopulationSpec(n_devices=2000, seed=7)
    return PopulationGenerator(spec), PopulationGenerator(spec).generate()


class TestGeneration:
    def test_lot_size(self, small_lot):
        _, chips = small_lot
        assert len(chips) == 2000
        assert [c.chip_id for c in chips] == list(range(2000))

    def test_deterministic_given_seed(self):
        spec = PopulationSpec(n_devices=300, seed=11)
        a = PopulationGenerator(spec).generate()
        b = PopulationGenerator(spec).generate()
        sig_a = [tuple(str(d) for d in c.all_defects) for c in a]
        sig_b = [tuple(str(d) for d in c.all_defects) for c in b]
        assert sig_a == sig_b

    def test_different_seeds_differ(self):
        a = PopulationGenerator(PopulationSpec(300, seed=1)).generate()
        b = PopulationGenerator(PopulationSpec(300, seed=2)).generate()
        na = sum(len(c.all_defects) for c in a)
        nb = sum(len(c.all_defects) for c in b)
        assert (na, [c.is_defective for c in a]) != (nb, [c.is_defective
                                                          for c in b])

    def test_defective_fraction_matches_poisson(self, small_lot):
        gen, chips = small_lot
        observed = sum(1 for c in chips if c.is_defective) / len(chips)
        expected = gen.expected_defective_fraction()
        assert observed == pytest.approx(expected, abs=0.02)

    def test_bridge_open_mix(self, small_lot):
        gen, chips = small_lot
        defects = [d for c in chips for d in c.all_defects]
        bridges = sum(d.kind is DefectKind.BRIDGE for d in defects)
        assert bridges / len(defects) == pytest.approx(
            gen.spec.density.bridge_fraction, abs=0.1)

    def test_resistances_sampled_from_distribution(self, small_lot):
        gen, chips = small_lot
        defects = [d for c in chips for d in c.all_defects
                   if d.kind is DefectKind.BRIDGE]
        rs = np.array([d.resistance for d in defects])
        # Bulk should be low-ohmic per the fab shape.
        assert np.median(rs) < 1e3


class TestSpec:
    def test_defaults_reflect_qualification_lot(self):
        spec = PopulationSpec()
        assert spec.n_devices == 11000
        assert spec.density.d0_per_cm2 > 1.0

    def test_custom_density(self):
        spec = PopulationSpec(100, DefectDensity(0.1, 0.5), seed=0)
        gen = PopulationGenerator(spec)
        assert gen.expected_defective_fraction() < 0.05


def block_walk(counts):
    """Replay :meth:`PopulationGenerator.generate`'s Poisson blocks over
    an instance-count vector: ``(a block's first non-zero count is its
    last draw, two non-zero instances are adjacent, the last block is
    partial)``."""
    block_size = population.POISSON_BLOCK
    ends_on_hit = last_partial = False
    i = 0
    while i < len(counts):
        block = min(block_size, len(counts) - i)
        last_partial = block < block_size
        hits = np.flatnonzero(counts[i:i + block])
        if hits.size == 0:
            i += block
            continue
        ends_on_hit |= block == block_size and hits[0] == block - 1
        i += int(hits[0]) + 1
    adjacent = bool(np.any((counts[1:] > 0) & (counts[:-1] > 0)))
    return ends_on_hit, adjacent, last_partial


class TestGenerateOracle:
    """``generate()`` batches the Poisson counts and fills arrays, yet
    draws exactly the lot of the one-call-at-a-time ``iter_chips()``."""

    @pytest.fixture
    def generators(self, monkeypatch):
        """The generators the lots draw from, in creation order."""
        made = []
        default_rng = np.random.default_rng

        def recording(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(population.np.random, "default_rng", recording)
        return made

    def assert_lots_equal(self, spec, generators):
        gen = PopulationGenerator(spec)
        lot = gen.generate()
        oracle = list(gen.iter_chips())
        assert lot == oracle
        fast, slow = generators
        assert fast.bit_generator.state == slow.bit_generator.state
        return oracle

    @pytest.mark.parametrize("seed", [1, 7, 2005])
    def test_default_lot_equals_oracle(self, seed, generators):
        oracle = self.assert_lots_equal(PopulationSpec(seed=seed),
                                        generators)
        assert sum(len(c.all_defects) for c in oracle) > 600

    def test_dense_lot_with_partial_last_block_equals_oracle(
            self, generators):
        spec = PopulationSpec(
            n_devices=1001, seed=2,
            density=DefectDensity(d0_per_cm2=12.0, bridge_fraction=0.8))
        oracle = self.assert_lots_equal(spec, generators)
        counts = np.array([len(instance) for chip in oracle
                           for instance in chip.defects])
        assert block_walk(counts) == (True, True, True)
        assert counts.max() > 1

    def test_one_defect_built_per_drawn_defect(self, monkeypatch):
        gen = PopulationGenerator(PopulationSpec(n_devices=3000, seed=5))
        gen.extractor.draw_table(DefectKind.BRIDGE)
        built = []
        check = Defect.__post_init__

        def counted(defect):
            built.append(defect)
            check(defect)

        monkeypatch.setattr(Defect, "__post_init__", counted)
        lot = gen.generate()
        drawn = [d for chip in lot for d in chip.all_defects]
        assert len(drawn) > 100
        assert len(built) == len(drawn)
        assert all(a is b for a, b in zip(built, drawn))
