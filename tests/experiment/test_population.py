"""Tests for repro.experiment.population."""

import numpy as np
import pytest

from repro.defects.distribution import DefectDensity
from repro.defects.models import Defect, DefectKind
from repro.experiment import population
from repro.experiment.classify import StressClassifier
from repro.experiment.population import PopulationGenerator, PopulationSpec
from repro.experiment.veqtor import VeqtorChip


@pytest.fixture(scope="module")
def small_lot():
    spec = PopulationSpec(n_devices=2000, seed=7)
    return PopulationGenerator(spec), PopulationGenerator(spec).generate()


def arrays_of(lot):
    """Every array of a lot, for exact comparison."""
    defects = lot.defects
    return [lot.rows, lot.chip_starts, lot.instances, defects.codes,
            defects.strengths, defects.resistances, defects.cells,
            defects.polarities]


class TestGeneration:
    def test_lot_shape(self, small_lot):
        _, lot = small_lot
        assert (lot.start, lot.devices) == (0, 2000)
        rows = lot.rows.tolist()
        assert rows == sorted(set(rows)) and 0 <= rows[0] <= rows[-1] < 2000
        assert lot.chip_starts[0] == 0
        assert np.all(np.diff(lot.chip_starts) > 0)
        assert lot.chip_starts[-1] < len(lot.defects)
        assert set(lot.instances.tolist()) <= set(
            range(VeqtorChip.N_INSTANCES))

    def test_deterministic_given_seed(self):
        spec = PopulationSpec(n_devices=300, seed=11)
        a = PopulationGenerator(spec).generate()
        b = PopulationGenerator(spec).generate()
        assert all(np.array_equal(x, y)
                   for x, y in zip(arrays_of(a), arrays_of(b)))

    def test_different_seeds_differ(self):
        a = PopulationGenerator(PopulationSpec(300, seed=1)).generate()
        b = PopulationGenerator(PopulationSpec(300, seed=2)).generate()
        assert (len(a.defects), a.rows.tolist()) != (len(b.defects),
                                                      b.rows.tolist())

    def test_defective_fraction_matches_poisson(self, small_lot):
        gen, lot = small_lot
        observed = len(lot.rows) / lot.devices
        expected = gen.expected_defective_fraction()
        assert observed == pytest.approx(expected, abs=0.02)

    def test_bridge_open_mix(self, small_lot):
        gen, lot = small_lot
        defects = lot.defects.defects()
        bridges = sum(d.kind is DefectKind.BRIDGE for d in defects)
        assert bridges / len(defects) == pytest.approx(
            gen.spec.density.bridge_fraction, abs=0.1)

    def test_resistances_sampled_from_distribution(self, small_lot):
        _, lot = small_lot
        rs = np.array([d.resistance for d in lot.defects.defects()
                       if d.kind is DefectKind.BRIDGE])
        # Bulk should be low-ohmic per the fab shape.
        assert np.median(rs) < 1e3

    def test_clean_lot_is_an_empty_block(self):
        spec = PopulationSpec(n_devices=50, seed=3,
                              density=DefectDensity(1e-9, 0.8))
        lot = PopulationGenerator(spec).generate()
        assert (lot.devices, len(lot.rows), len(lot.defects)) == (50, 0, 0)


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
    draws exactly the lot of the one-call-at-a-time ``iter_chips()``:
    the block's parts are the oracle's defective chips."""

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
        defective = [chip for chip in oracle if chip.is_defective]
        assert lot.devices == len(oracle)
        assert lot.rows.tolist() == [chip.chip_id for chip in defective]
        assert [lot.chip(k) for k in range(len(lot.rows))] == defective
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


class TestMaterialisation:
    """The Figure 11 path (``generate()`` + ``classify()``) stays in
    arrays from draw to Venn: it builds no chip and no ``Defect``."""

    def test_figure11_lot_builds_no_chip_and_no_defect(self, monkeypatch):
        built = {VeqtorChip: 0, Defect: 0}

        def count(cls):
            check = cls.__post_init__

            def counted(self):
                built[cls] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)

        count(VeqtorChip)
        count(Defect)
        lot = PopulationGenerator(PopulationSpec(n_devices=11_000)).generate()
        acc = StressClassifier().classify(lot)
        assert built == {VeqtorChip: 0, Defect: 0}
        assert (acc.devices, acc.defective) == (11_000, len(lot.rows))
        assert acc.interesting > 0
