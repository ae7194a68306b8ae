"""Golden certifier snapshots for the 24 bundled scenarios.

Every verdict of :func:`repro.analysis.certify.certify_program` — with its
witness, reason and counterexample rows — is pinned in
``tests/fixtures/certify.json`` for both algorithms: the novel pipeline
(every constraint PROVED) and the basic Clio-style one (some keys and NOT
NULL constraints REFUTED with a minimized counterexample).  Any change to
the egd chase, the containment engine or the counterexample builder that
moves a proof text or a counterexample row shows up as a fixture diff.

Regenerate after an intentional certifier change with::

    REGEN_CERTIFY=1 PYTHONPATH=src python -m pytest tests/test_certify_snapshots.py -q
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import MappingSystem
from repro.scenarios import bundled_problems

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "certify.json")

ALGORITHMS = ("novel", "basic")


def _certify(algorithm: str) -> dict[str, dict]:
    return {
        name: MappingSystem(problem, algorithm=algorithm).certify().to_dict()
        for name, problem in bundled_problems().items()
    }


def _golden() -> dict[str, dict[str, dict]]:
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", autouse=True)
def _regenerate_if_requested():
    if os.environ.get("REGEN_CERTIFY"):
        payload = {algorithm: _certify(algorithm) for algorithm in ALGORITHMS}
        with open(FIXTURE, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    yield


@pytest.fixture(scope="module")
def certified() -> dict[str, dict[str, dict]]:
    return {algorithm: _certify(algorithm) for algorithm in ALGORITHMS}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_certify_matches_fixture(certified, algorithm):
    golden = _golden()[algorithm]
    assert sorted(certified[algorithm]) == sorted(golden)
    drifted = [
        name for name in golden if certified[algorithm][name] != golden[name]
    ]
    assert not drifted, (
        f"certifier output drifted for {drifted} under {algorithm!r}; if the "
        "change is intentional, regenerate with REGEN_CERTIFY=1"
    )


def _verdicts(report_by_name: dict[str, dict]) -> list[dict]:
    return [v for report in report_by_name.values() for v in report["verdicts"]]


def test_fixture_pins_the_bundled_suite():
    """24 scenarios; novel proves everything, basic refutes with evidence."""
    golden = _golden()
    assert len(golden["novel"]) == len(golden["basic"]) == 24
    novel = _verdicts(golden["novel"])
    assert len(novel) == 148
    assert all(v["verdict"] == "PROVED" and v["witness"] for v in novel)
    basic = _verdicts(golden["basic"])
    proved = [v for v in basic if v["verdict"] == "PROVED"]
    refuted = [v for v in basic if v["verdict"] == "REFUTED"]
    assert (len(proved), len(refuted)) == (136, 12)
    assert all(v["counterexample"] and v["reason"] for v in refuted)
