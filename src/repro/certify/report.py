"""The machine-checkable certificate format (schema ``repro-cert/v1``).

A :class:`CertificationReport` is the output of
:func:`repro.certify.engine.certify_solution`: one
:class:`CheckResult` per independent evidence source (Bellman
residual, LP duality, exact arithmetic, backend consensus), each
carrying typed :class:`CertFinding` entries when it fails. The report
serializes to a self-describing, checksummed JSON document so it can
be stored next to a serve artifact and re-verified on load -- the same
torn-write/hand-edit protection the policy artifact itself has.

The verdict rule is deliberately strict: a report is *certified* only
when no check failed **and** at least one check actually ran. A report
whose every check was skipped certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import CertificationError
from repro.robust.checkpoint import canonical_checksum
from repro.robust.checkpoint import document_checksum as _checksum

#: Schema tag stamped on every certificate document.
CERT_SCHEMA = "repro-cert/v1"

#: Check states. ``skipped`` records *why* in the check's data and
#: never contributes to the verdict.
CHECK_STATUSES = ("passed", "failed", "skipped")


@dataclass(frozen=True)
class CertFinding:
    """One typed defect discovered by a certification check.

    ``code`` is a stable machine-matchable slug (e.g.
    ``bellman-gap-exceeded``, ``backend-disagreement``); ``state``
    names the offending state (its ``repr``) when the defect is
    localized, and ``value`` carries the offending magnitude.
    """

    code: str
    message: str
    state: "Optional[str]" = None
    value: "Optional[float]" = None

    def to_dict(self) -> "Dict[str, Any]":
        doc: "Dict[str, Any]" = {"code": self.code, "message": self.message}
        if self.state is not None:
            doc["state"] = self.state
        if self.value is not None:
            doc["value"] = float(self.value)
        return doc

    @classmethod
    def from_dict(cls, doc: "Dict[str, Any]") -> "CertFinding":
        return cls(
            code=str(doc["code"]),
            message=str(doc["message"]),
            state=doc.get("state"),
            value=doc.get("value"),
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one independent evidence source.

    ``data`` holds the check's numeric evidence (gains, residuals,
    gaps, per-backend values) -- JSON-serializable by construction, so
    a certificate is auditable without re-running anything.
    """

    name: str
    status: str
    findings: "List[CertFinding]" = field(default_factory=list)
    data: "Dict[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in CHECK_STATUSES:
            raise CertificationError(
                f"check status must be one of {CHECK_STATUSES}, "
                f"got {self.status!r}"
            )

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "name": self.name,
            "status": self.status,
            "findings": [f.to_dict() for f in self.findings],
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, doc: "Dict[str, Any]") -> "CheckResult":
        return cls(
            name=str(doc["name"]),
            status=str(doc["status"]),
            findings=[CertFinding.from_dict(f) for f in doc["findings"]],
            data=dict(doc["data"]),
        )


@dataclass(frozen=True)
class CertificationReport:
    """An a-posteriori optimality certificate for one solved policy.

    Attributes
    ----------
    mode:
        ``"weighted"`` (Eqn. 3.1 objective) or ``"constrained"``
        (Section IV).
    rate, weight:
        The operating point; ``weight`` is ``None`` in constrained
        mode.
    claimed:
        What the solver under test claimed (gain, objective value,
        metrics) -- the values the independent evidence was checked
        against.
    checks:
        One :class:`CheckResult` per evidence source, in run order.
    policy_checksum:
        SHA-256 over the canonical policy table, so the certificate is
        bound to one exact policy.
    fingerprint:
        The serving-model fingerprint when the model supports one.
    artifact_checksum:
        Checksum of the :class:`repro.serve.artifact.PolicyArtifact`
        this certificate covers (``None`` outside the serve pipeline).
    """

    mode: str
    rate: float
    weight: "Optional[float]"
    n_states: int
    tolerance: float
    claimed: "Dict[str, float]"
    checks: "List[CheckResult]"
    policy_checksum: str
    fingerprint: "Optional[str]" = None
    artifact_checksum: "Optional[str]" = None

    @property
    def certified(self) -> bool:
        """No check failed and at least one check actually ran."""
        return (
            all(c.status != "failed" for c in self.checks)
            and any(c.status == "passed" for c in self.checks)
        )

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "failed"

    @property
    def findings(self) -> "List[CertFinding]":
        """All findings across checks, in check order."""
        return [f for check in self.checks for f in check.findings]

    @property
    def finding_codes(self) -> "List[str]":
        return sorted({f.code for f in self.findings})

    def check(self, name: str) -> "Optional[CheckResult]":
        for result in self.checks:
            if result.name == name:
                return result
        return None

    # -- (de)serialization ----------------------------------------------------

    def _body(self) -> "Dict[str, Any]":
        return {
            "schema": CERT_SCHEMA,
            "verdict": self.verdict,
            "mode": self.mode,
            "rate": self.rate,
            "weight": self.weight,
            "n_states": self.n_states,
            "tolerance": self.tolerance,
            "claimed": dict(self.claimed),
            "checks": [c.to_dict() for c in self.checks],
            "policy_checksum": self.policy_checksum,
            "fingerprint": self.fingerprint,
            "artifact_checksum": self.artifact_checksum,
        }

    def to_document(self) -> "Dict[str, Any]":
        doc = self._body()
        doc["checksum"] = _checksum(doc)
        return doc

    @classmethod
    def from_document(cls, doc: "Dict[str, Any]") -> "CertificationReport":
        """Parse and integrity-check a loaded certificate document.

        Raises :class:`~repro.errors.CertificationError` on an unknown
        schema, a checksum mismatch, or a malformed document -- a
        corrupt certificate certifies nothing.
        """
        if not isinstance(doc, dict):
            raise CertificationError(
                f"certificate document must be an object, got "
                f"{type(doc).__name__}"
            )
        if doc.get("schema") != CERT_SCHEMA:
            raise CertificationError(
                f"unknown certificate schema {doc.get('schema')!r}; "
                f"expected {CERT_SCHEMA!r}"
            )
        stored = doc.get("checksum")
        if stored is None:
            raise CertificationError("certificate document has no checksum")
        expected = _checksum(doc)
        if stored != expected:
            raise CertificationError(
                "certificate checksum mismatch: stored "
                f"{str(stored)[:12]}..., computed {expected[:12]}... "
                "-- the file is corrupt or was edited by hand"
            )
        try:
            report = cls(
                mode=str(doc["mode"]),
                rate=float(doc["rate"]),
                weight=(
                    float(doc["weight"]) if doc["weight"] is not None else None
                ),
                n_states=int(doc["n_states"]),
                tolerance=float(doc["tolerance"]),
                claimed={str(k): float(v) for k, v in doc["claimed"].items()},
                checks=[CheckResult.from_dict(c) for c in doc["checks"]],
                policy_checksum=str(doc["policy_checksum"]),
                fingerprint=doc.get("fingerprint"),
                artifact_checksum=doc.get("artifact_checksum"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificationError(
                f"certificate document is malformed: {exc!r}"
            ) from exc
        if report.verdict != doc["verdict"]:
            raise CertificationError(
                f"certificate verdict {doc['verdict']!r} does not match "
                f"its own checks (recomputed {report.verdict!r})"
            )
        return report


def policy_table_checksum(mdp, policy) -> str:
    """SHA-256 binding a certificate to one exact policy table.

    Deterministic policies hash their ``(state, action)`` table in
    model state order, read from their action tuple (so a policy must
    be bound to a model with *mdp*'s states); randomized policies hash
    the per-state action distributions (action-sorted). Plain
    assignment mappings hash like deterministic policies.
    """
    rows: "List[Any]" = []
    if hasattr(policy, "distribution"):
        for state in mdp.states:
            dist = policy.distribution(state)
            rows.append(
                [repr(state), sorted((repr(a), p) for a, p in dist.items())]
            )
    else:
        actions = (policy.actions if hasattr(policy, "actions")
                   else [policy[state] for state in mdp.states])
        rows = [[repr(s), repr(a)] for s, a in zip(mdp.states, actions)]
    return canonical_checksum({"table": rows})
