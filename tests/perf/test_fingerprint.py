"""Tests for repro.perf.fingerprint: stability, sensitivity, refusal."""

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectKind
from repro.perf.fingerprint import (
    FingerprintError,
    fingerprint_digest,
    fingerprint_document,
)
from repro.runner.atomic import canonical_json

class TestFingerprintDocument:
    def test_primitives_pass_through(self):
        assert fingerprint_document(None) is None
        assert fingerprint_document(True) is True
        assert fingerprint_document(3) == 3
        assert fingerprint_document("x") == "x"

    def test_float_round_trips_exactly(self):
        doc = fingerprint_document(0.1 + 0.2)
        assert doc == ["f", repr(0.1 + 0.2)]

    def test_enum_includes_class(self):
        doc = fingerprint_document(DefectKind.BRIDGE)
        assert doc == ["enum", "DefectKind", "bridge"]

    def test_numpy_scalars_and_arrays(self):
        assert fingerprint_document(np.float64(1.5)) == ["f", "1.5"]
        assert fingerprint_document(np.int64(7)) == 7
        doc = fingerprint_document(np.array([1.0, 2.0]))
        assert doc == [["f", "1.0"], ["f", "2.0"]]

    def test_dict_keys_must_be_strings(self):
        with pytest.raises(FingerprintError, match="not a string"):
            fingerprint_document({1: "a"})

    def test_set_order_is_canonical(self):
        a = fingerprint_document({"b", "a", "c"})
        b = fingerprint_document({"c", "a", "b"})
        assert a == b

    def test_document_is_json_canonicalisable(self):
        doc = fingerprint_document(DefectBehaviorModel(CMOS018))
        canonical_json(doc)  # must not raise

    def test_unfingerprintable_names_path(self):
        class Holder:
            def __init__(self):
                self.rng = np.random.default_rng(0)

        with pytest.raises(FingerprintError, match=r"\$\.rng"):
            fingerprint_document(Holder())

    def test_cycle_is_refused(self):
        a = {}
        a["self"] = a
        with pytest.raises(FingerprintError, match="cyclic"):
            fingerprint_document(a)

    def test_private_attributes_are_skipped(self):
        class WithCache:
            def __init__(self, x):
                self.x = x
                self._memo = object()  # unfingerprintable, but private

        assert (fingerprint_document(WithCache(1))
                == ["obj", "TestFingerprintDocument.test_private_"
                    "attributes_are_skipped.<locals>.WithCache", {"x": 1}])


class TestDigest:
    def test_digest_is_sha256_hex(self):
        digest = fingerprint_digest({"a": 1})
        assert len(digest) == 64
        int(digest, 16)  # hex

    def test_equal_inputs_equal_digests(self):
        assert (fingerprint_digest(DefectBehaviorModel(CMOS018))
                == fingerprint_digest(DefectBehaviorModel(CMOS018)))
