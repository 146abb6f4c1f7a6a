"""Publishable alpha-PPDB certification documents.

Section 10: "if a particular default level is explicitly adopted, the
database can be demonstrably shown to be an alpha-PPDB."  The raw
:class:`~repro.core.ppdb.PPDBCertificate` carries the evidence; this
module wraps it into a self-contained document (plain dict / JSON) that a
house can publish and a provider can recheck: the claim, the measured
``P(W)``, the margin, and the per-provider indicator list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.policy import HousePolicy
from ..core.ppdb import PPDBCertificate
from ..perf import BatchViolationEngine


@dataclass(frozen=True, slots=True)
class CertificationDocument:
    """An alpha-PPDB certificate plus contextual metrics, publishable as JSON."""

    certificate: PPDBCertificate
    default_probability: float
    total_violations: float

    def as_dict(self) -> dict:
        """The document as a JSON-compatible dict."""
        certificate = self.certificate
        return {
            "claim": f"alpha-PPDB(alpha={certificate.alpha})",
            "policy": certificate.policy_name,
            "satisfied": certificate.satisfied,
            "violation_probability": certificate.violation_probability,
            "margin": certificate.margin,
            "n_providers": certificate.n_providers,
            "violated_providers": [
                str(provider) for provider in certificate.violated_providers
            ],
            "default_probability": self.default_probability,
            "total_violations": self.total_violations,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The document as JSON text."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def verify(self) -> bool:
        """Recheck the certificate's internal consistency.

        The verification a provider can run without trusting the house:
        the published ``P(W)`` must equal the violated-provider count over
        the population size, and the verdict must match the threshold.
        """
        certificate = self.certificate
        if certificate.n_providers == 0:
            return certificate.violation_probability == 0.0 and certificate.satisfied
        recomputed = (
            len(certificate.violated_providers) / certificate.n_providers
        )
        if abs(recomputed - certificate.violation_probability) > 1e-12:
            return False
        return certificate.satisfied == (
            certificate.violation_probability <= certificate.alpha
        )


def batch_certification_document(
    engine: BatchViolationEngine, policy: HousePolicy, alpha: float
) -> CertificationDocument:
    """Produce the publishable document for *policy* on a batch engine.

    This is the document ``repro certify`` prints.  The engine caches
    per-policy evaluations, so certifying several candidate policies
    against one compiled population reuses each evaluation; the
    certificate and the contextual metrics come from the same cached
    evaluation, keeping them consistent by construction.
    """
    report = engine.evaluate(policy)
    return CertificationDocument(
        certificate=engine.certify(policy, alpha),
        default_probability=report.default_probability,
        total_violations=report.total_violations,
    )
