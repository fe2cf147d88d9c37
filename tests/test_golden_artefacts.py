"""The paper's published artefacts pinned byte for byte.

The canonical report text (``full_report()`` at its defaults, the run
``python -m repro.analysis.report`` prints), the ``--save-db`` JSON of
a small ``repro campaign run``, the ``repro venn`` text of three lot
seeds and the ``repro plan`` text at its defaults are hashed and
compared with the SHA-256 digests of ``tests/golden_digests.json``
(:mod:`tests.golden`), computed before the last change to the code
that makes them.  A refactor or speed-up that moves any number in
either one fails here; a deliberate change updates the digest and
names its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from repro.analysis.report import full_report
from repro.cli import main

from .golden import golden

#: The campaign of ``scripts/check.sh``'s service smoke.
CAMPAIGN = ["campaign", "run", "--rows", "8", "--columns", "2",
            "--bits", "4", "--sites", "40"]

#: Command lines whose stdout is pinned: the Figure 11 Venn of three
#: lot seeds and the test plan at its defaults (``--test 11N
#: --samples 3000``).
CLI_RUNS = {
    "venn_seed1": ["venn", "--seed", "1"],
    "venn_seed7": ["venn", "--seed", "7"],
    "venn_seed2005": ["venn", "--seed", "2005"],
    "plan": ["plan"],
}

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest() -> str:
    return sha256(full_report().encode())


def campaign_db_digest(directory: Path) -> str:
    db = directory / "db.json"
    assert main([*CAMPAIGN, "--save-db", str(db)]) == 0
    return sha256(db.read_bytes())


def cli_digest(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    return sha256(out.getvalue().encode())


def golden_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as directory:
        return {"report": report_digest(),
                "campaign_db": campaign_db_digest(Path(directory)),
                **{name: cli_digest(args)
                   for name, args in CLI_RUNS.items()}}


def test_report_text_is_golden():
    assert report_digest() == golden("artefacts")["report"]


def test_campaign_database_is_golden(tmp_path, capsys):
    assert (campaign_db_digest(tmp_path)
            == golden("artefacts")["campaign_db"])


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_text_is_golden(name):
    assert cli_digest(CLI_RUNS[name]) == golden("artefacts")[name]
