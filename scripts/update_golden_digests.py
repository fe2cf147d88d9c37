"""Rewrite tests/golden_digests.json from the current code.

Usage:  python scripts/update_golden_digests.py

Recomputes every golden digest -- the estimator output, the 18 streaming
lot payloads and the paper artefacts (report text, ``--save-db``,
``repro venn`` at three seeds, ``repro plan``) -- with the digest
functions of the tests that compare against them, and writes the file
they read.  Run it only for a deliberate change to those numbers and
name the reason in CHANGES.md; a change that should leave them alone
leaves the file's diff empty.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.runner.atomic import atomic_write_text  # noqa: E402
from tests import test_golden_artefacts  # noqa: E402
from tests.core import test_estimator_tables  # noqa: E402
from tests.experiment import test_lot_golden  # noqa: E402
from tests.golden import GOLDEN_FILE  # noqa: E402


def main() -> None:
    digests = {
        "estimator": test_estimator_tables.golden_digest(),
        "lot": test_lot_golden.golden_digests(),
        "artefacts": test_golden_artefacts.golden_digests(),
    }
    atomic_write_text(GOLDEN_FILE,
                      json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
