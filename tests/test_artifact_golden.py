"""Golden digests for the artifacts of seeded end-to-end runs.

Each configuration plans a 300-task blast2cap3 workflow
(``repro-plan -n 300``) and runs it with ``repro-run --seed 3``, then
hashes what the run leaves behind and what the reporting tools print:

* ``trace.jsonl`` and ``events.jsonl`` from the submit directory;
* ``repro-statistics`` stdout;
* the ``repro-report analyze`` JSON, canonicalized: the ``"trace"``
  key dropped, floats rounded to 12 significant digits and keys sorted,
  so a reducer that sums in a different order cannot move the digest
  but a changed number, count or key does.

The submit directory's path is replaced by ``<submit>`` before hashing,
so the digests do not depend on where pytest puts its temporary
directories. The digests were recorded on the code before the attempt
codec, the trace folds and the critical-path selectors were merged, so
a mismatch here means a refactor changed an artifact byte or a report
number.

To inspect a mismatch, run the same commands on a checkout of the old
code with the same submit-directory path and ``diff`` the files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.observe.report import main as report_main
from repro.wms.cli import main_plan, main_run, main_statistics

CHAOS = [
    "--chaos-start-failure", "0.1",
    "--chaos-eviction-rate", "0.0002",
    "--blacklist-threshold", "2",
    "--blacklist-cooldown", "900",
]

#: name -> (site, extra repro-run flags)
CONFIGS = {
    "sandhills": ("sandhills", []),
    "osg": ("osg", []),
    "cloud": ("cloud", []),
    "osg-chaos": ("osg", CHAOS),
}

GOLDEN = {
    "sandhills": {
        "trace.jsonl": "71f5ec515e45dd48d3193c321e50e8d1a7c22c45fc33b2dd19715ac9b0b74098",
        "events.jsonl": "383c243aecd8c1459c4e656186ca910b4613bf200ea5aab289b0aec57d8b9119",
        "statistics": "64d08c2da095d839df9db2f1ec5c7b75e9f93da3350b88774e77b2f690f019a7",
        "report": "f344994fc8223694dfe705ced9f21146fb5ab0e09907d0a6d74f3a3a1dfa6183",
    },
    "osg": {
        "trace.jsonl": "8323e9daff9295aa8d3359de82824e4da9edf2cea283d4740c52e667d451f741",
        "events.jsonl": "f6c91f081d1159b3e1339e13bd53e127dd50c66ed430ee8f346c25afe59f67bc",
        "statistics": "84c415e380098cd9d8858f49319cd16665b788b0df3956b7d2417184e8e052b4",
        "report": "c9316e1cf8f9f3c8d88ccb41cf53a27883dfd1a1746507511b055b1f12cb25d3",
    },
    "cloud": {
        "trace.jsonl": "fd0bae323809f4167d5e9dd3e29551ead7697d1975a6326fe541521b15021843",
        "events.jsonl": "91976b65e08803282b483a853448bac92ce7b2dbf41d9b3c5c4a35b186cd307a",
        "statistics": "246ff4692a614027b5929991f83fa72c050d6663b3cda6cd897e9170b6455cd3",
        "report": "f5c7ad5eb6b47761ea7a7a713adc91ad8ee41b8b0cbeedd3430132c951eb91f8",
    },
    "osg-chaos": {
        "trace.jsonl": "852fa2e1ab2d6bdef0db850439a310df7b443f070d4abe8816b1aff2fdf44fdb",
        "events.jsonl": "4b5aa96d66d60f55312d5b78e427eb7171f3a514362f040df5069b7e966fa5f5",
        "statistics": "9dbd2a8f1e9d2555b6dcdbb8363d166bda6a6f13ac85b50362d4d5a2e9ea3682",
        "report": "8ae2bb79caa0db51f488139e0e76c9abe0924f6080f4feda9f10362e2b3103a3",
    },
}


def _canonical(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    return value


def _quiet(fn, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
        io.StringIO()
    ):
        rc = fn(argv)
    return rc, out.getvalue()


def _digests(submit: Path, site: str, extra: list[str]) -> dict[str, str]:
    """Plan and run one configuration; the digest of each artifact."""
    assert _quiet(main_plan, ["--submit-dir", str(submit), "-n", "300",
                              "--site", site])[0] == 0
    _quiet(main_run, ["--submit-dir", str(submit), "--seed", "3", *extra])
    rc, statistics = _quiet(main_statistics, ["--submit-dir", str(submit)])
    assert rc == 0
    report_path = submit.parent / f"{submit.name}.report.json"
    assert _quiet(report_main, ["analyze", str(submit), "--json",
                                str(report_path), "--quiet"])[0] == 0
    report = json.loads(report_path.read_text())
    report.pop("trace", None)
    texts = {
        "trace.jsonl": (submit / "trace.jsonl").read_text(),
        "events.jsonl": (submit / "events.jsonl").read_text(),
        "statistics": statistics,
        "report": json.dumps(_canonical(report), sort_keys=True),
    }
    return {
        name: hashlib.sha256(
            text.replace(str(submit), "<submit>").encode()
        ).hexdigest()
        for name, text in texts.items()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden(name, tmp_path):
    site, extra = CONFIGS[name]
    assert _digests(tmp_path / name, site, extra) == GOLDEN[name]
