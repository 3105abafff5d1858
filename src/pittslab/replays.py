"""Bundled replays of the nondefinability arguments.

Each suite pairs a schema theory (the defining properties of a hypothetical
auxiliary term) with proof scripts transcribing the corresponding derivation
tables; checking them end to end rederives the collapse sequents.  The
star-family suite works with an abstract unary symbol whose standing facts
are axiom schemas, and separately verifies those facts for every bundled
concrete instance, which is what makes the replay uniform in the instance.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .parser import parse_formula
from .rieger import check_rieger_lower_facts
from .scripts import ProofScript, check_script, parse_script, parse_theory

_SUITES = {
    "tara": {
        "theory": "tara/theory.thy",
        "scripts": [
            "tara/topreducts.pfs",
            "tara/negtopreducts.pfs",
            "tara/implication.pfs",
            "tara/topswitch.pfs",
            "tara/fulcrum.pfs",
            "tara/dneg.pfs",
        ],
        "derived": [("tara/dneg", 19)],
    },
    "kreisel": {
        "theory": "kreisel/theory.thy",
        "scripts": [
            "kreisel/trivium.pfs",
            "kreisel/quadrivium.pfs",
            "kreisel/final.pfs",
        ],
        "derived": [("kreisel/final", 23), ("kreisel/final", 25)],
        "psi": ["~Y \\/ ~~Y", "~~Y \\/ (~~Y -> Y)", "(~~Y -> Y) -> (Y \\/ ~Y)"],
    },
    "polacik": {
        "theory": "polacik/theory.thy",
        "scripts": ["polacik/three_in_one.pfs", "polacik/final.pfs"],
        "derived": [("polacik/three_in_one", 14), ("polacik/final", 5)],
    },
    "polacik-wlem": {
        "theory": "polacik/wlem_theory.thy",
        "scripts": ["polacik/wlem_three_in_one.pfs", "polacik/wlem_final.pfs"],
        "derived": [("polacik/wlem_final", 5)],
    },
    "tara-props": {
        "theory": "tara/props.thy",
        "scripts": ["tara/props.pfs"],
        "derived": [
            ("tara/props", n) for n in (1, 2, 3, 4, 5, 13, 14)
        ],
    },
    "polacik-disjunction": {
        "theory": "polacik/disjunction_theory.thy",
        "scripts": ["polacik/disjunction.pfs"],
        "derived": [("polacik/disjunction", 9)],
    },
}
REPLAY_NAMES = tuple(_SUITES)


class ScriptFailed(Exception):
    def __init__(self, script: str, line: int | None, reason: str):
        self.script = script
        self.line = line
        self.reason = reason
        where = f" line {line}" if line is not None else ""
        super().__init__(f"{script}{where}: {reason}")


@dataclass
class ReplayReport:
    """A replay that ran to the end: every script in `scripts` was accepted."""

    name: str
    scripts: list[ProofScript]
    derived: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def payload(self) -> dict:
        """The report as JSON-ready data; `details` only when there are any."""
        payload = {
            "name": self.name,
            "scripts": [
                {"file": s.name, "lines": len(s.lines), "status": "ok"}
                for s in self.scripts
            ],
            "derived": self.derived,
        }
        if self.details:
            payload["details"] = self.details
        return payload


def script_root() -> Path:
    """The bundled scripts, or the directory `PITTSLAB_SCRIPT_DIR` names."""
    env = os.environ.get("PITTSLAB_SCRIPT_DIR")
    if env:
        return Path(env)
    return Path(str(resources.files("pittslab") / "data" / "scripts"))


def _read(root: Path, rel: str) -> str:
    return (root / rel).read_text(encoding="utf-8")


def load_suite(name: str):
    """Theory and parsed scripts of a bundled suite, in checking order."""
    if name not in _SUITES:
        raise KeyError(f"unknown replay {name!r}; choose from {', '.join(REPLAY_NAMES)}")
    suite = _SUITES[name]
    root = script_root()
    theory = parse_theory(_read(root, suite["theory"]), name=name)
    scripts = []
    for rel in suite["scripts"]:
        stem = rel.rsplit(".", 1)[0]
        scripts.append(parse_script(_read(root, rel), theory, name=stem))
    return theory, scripts


def replay(name: str) -> ReplayReport:
    """Check a bundled suite; raise ScriptFailed on the first broken line."""
    _, scripts = load_suite(name)
    suite = _SUITES[name]
    report = ReplayReport(name, scripts)
    registry: dict[str, ProofScript] = {}
    for script in scripts:
        result = check_script(script, registry)
        if not result.ok:
            line, reason = result.failure
            raise ScriptFailed(script.name, line, reason)
        registry[script.name] = script

    for sname, lineno in suite["derived"]:
        report.derived.append(str(registry[sname].sequent(lineno)))

    if "psi" in suite:
        instances = []
        for text in suite["psi"]:
            psi = parse_formula(text)
            facts = check_rieger_lower_facts(psi)
            instances.append(
                {
                    "psi": text,
                    "double_negated": facts.double_negated,
                    "follows_from_truth": facts.follows_from_truth,
                    "self_instance": facts.self_instance,
                    "reflection": facts.reflection,
                    "ok": facts.all_hold,
                }
            )
            if not facts.all_hold:
                raise ScriptFailed(name, None, f"standing facts fail for psi = {text}")
        report.details["psi_instances"] = instances
    return report
