"""The paper's published artefacts pinned byte for byte.

The canonical report text (``full_report()`` at its defaults, the run
``python -m repro.analysis.report`` prints) and the ``--save-db`` JSON of
a small ``repro campaign run`` are hashed and compared with SHA-256
digests computed before the last change to the code that makes them.
A refactor or speed-up that moves any number in either one fails here;
a deliberate change updates the digest and names its reason in
CHANGES.md.  Regenerate with::

    PYTHONPATH=src:. python -c "from tests.test_golden_artefacts \\
    import golden_digests; print(golden_digests())"
"""

import hashlib
import tempfile
from pathlib import Path

from repro.analysis.report import full_report
from repro.cli import main

#: The campaign of ``scripts/check.sh``'s service smoke.
CAMPAIGN = ["campaign", "run", "--rows", "8", "--columns", "2",
            "--bits", "4", "--sites", "40"]

GOLDEN_DIGESTS = {
    "report": "b9b91f24a78cbde705b0601b16fddfa0"
              "9838a53f1d3f963c5b7c9cfef1cbaad7",
    "campaign_db": "d8d9c5d7de41539d6a41ce2ef5b2a928"
                   "c0b5cf43530b7bca8bfa6a6dd82bf552",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest() -> str:
    return sha256(full_report().encode())


def campaign_db_digest(directory: Path) -> str:
    db = directory / "db.json"
    assert main([*CAMPAIGN, "--save-db", str(db)]) == 0
    return sha256(db.read_bytes())


def golden_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as directory:
        return {"report": report_digest(),
                "campaign_db": campaign_db_digest(Path(directory))}


def test_report_text_is_golden():
    assert report_digest() == GOLDEN_DIGESTS["report"]


def test_campaign_database_is_golden(tmp_path, capsys):
    assert campaign_db_digest(tmp_path) == GOLDEN_DIGESTS["campaign_db"]
