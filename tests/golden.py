"""The golden digests of the byte-identity tests, read from one file.

``tests/golden_digests.json`` holds a section per golden test module:
``estimator`` (:mod:`tests.core.test_estimator_tables`), ``lot``
(:mod:`tests.experiment.test_lot_golden`, keyed by seed) and
``artefacts`` (:mod:`tests.test_golden_artefacts`).  A mismatch fails
its test; nothing skips.  ``python scripts/update_golden_digests.py``
rewrites the file from the current code -- only for a deliberate change
to the numbers, named with its reason in CHANGES.md -- so unchanged
digests are an empty diff of this one file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: The committed digest file.
GOLDEN_FILE = Path(__file__).with_name("golden_digests.json")


def golden(section: str) -> Any:
    """The committed digests of one section."""
    return json.loads(GOLDEN_FILE.read_text())[section]
