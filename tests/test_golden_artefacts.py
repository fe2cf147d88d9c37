"""The paper's published artefacts pinned byte for byte.

The canonical report text (``full_report()`` at its defaults, the run
``python -m repro.analysis.report`` prints), the ``--save-db`` JSON of
a small ``repro campaign run``, the ``repro venn`` text of three lot
seeds and the ``repro plan`` text at its defaults are hashed and
compared with SHA-256 digests computed before the last change to the
code that makes them.
A refactor or speed-up that moves any number in either one fails here;
a deliberate change updates the digest and names its reason in
CHANGES.md.  Regenerate with::

    PYTHONPATH=src:. python -c "from tests.test_golden_artefacts \\
    import golden_digests; print(golden_digests())"
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from repro.analysis.report import full_report
from repro.cli import main

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

GOLDEN_DIGESTS = {
    "report": "b9b91f24a78cbde705b0601b16fddfa0"
              "9838a53f1d3f963c5b7c9cfef1cbaad7",
    "campaign_db": "d8d9c5d7de41539d6a41ce2ef5b2a928"
                   "c0b5cf43530b7bca8bfa6a6dd82bf552",
    "venn_seed1": "a9afcaa14cfb399555d62bff4be14650"
                  "c715ae560732a18d8a620725d2be46a3",
    "venn_seed7": "2b0966b9dccfaf0e2143340aab0fb66b"
                  "fef82ddaa80050c3e893280bb4e3c564",
    "venn_seed2005": "42972c0bcf8a599ee5992291884ec26e"
                     "64f60dcfaf41aa53b3b80efdb6b1d2f0",
    "plan": "f3799f1f7f424b2ef56a0dcea476963c"
            "0d12dbd0dc1f5f02023ba0b2d1015e36",
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
    assert report_digest() == GOLDEN_DIGESTS["report"]


def test_campaign_database_is_golden(tmp_path, capsys):
    assert campaign_db_digest(tmp_path) == GOLDEN_DIGESTS["campaign_db"]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_text_is_golden(name):
    assert cli_digest(CLI_RUNS[name]) == GOLDEN_DIGESTS[name]
