"""Healthcare: audit a clinic's policy against its patient population.

A clinic holds demographic and clinical attributes under a conservative
baseline policy.  This example:

1. evaluates the baseline (anchored population: clean by construction),
2. considers a proposed widening (share with the hospital network, keep
   data longer),
3. breaks the resulting violations down by Westin segment, attribute, and
   dimension,
4. publishes an alpha-PPDB certification document for the proposal.

Run:  python examples/healthcare_audit.py
"""

from repro.analysis import (
    batch_certification_document,
    summarize,
    violation_matrix,
)
from repro.core import Dimension, ViolationEngine
from repro.datasets import healthcare_scenario
from repro.perf import BatchViolationEngine
from repro.simulation import WideningStep, widen

scenario = healthcare_scenario(n_providers=200, seed=7)
print(f"scenario: {scenario}")
print()

# --- 1. the baseline is clean ---------------------------------------------
baseline = ViolationEngine(scenario.policy, scenario.population)
print(f"baseline: {baseline.report()}")
print()

# --- 2. the proposal: +1 visibility (hospital network), +1 retention ------
proposal = widen(
    scenario.policy,
    WideningStep.along(Dimension.VISIBILITY)
    + WideningStep.along(Dimension.RETENTION),
    scenario.taxonomy,
    name="clinic-proposal",
)
proposed = baseline.with_policy(proposal)
report = proposed.report()
print(f"proposal: {report}")
print()

# --- 3. who gets hurt, and where ------------------------------------------
print(summarize(report).to_text())
print()

matrix = violation_matrix(report)
print("hottest provider/attribute cells:")
for provider_id, attribute, severity in matrix.hottest_cells(5):
    print(f"  {provider_id:>12}  {attribute:<12} {severity:10.1f}")
print()
print("severity by dimension:")
for dimension, severity in sorted(
    matrix.dimension_totals.items(), key=lambda item: -item[1]
):
    print(f"  {dimension.value:<12} {severity:10.1f}")
print()

# --- 4. the certification document the clinic would publish ---------------
document = batch_certification_document(
    BatchViolationEngine(scenario.population), proposal, alpha=0.10
)
print(document.to_json())
print()
print(f"document internally consistent: {document.verify()}")
print()
print(
    "verdict: the proposal violates "
    f"{report.n_violated}/{report.n_providers} patients and would lose "
    f"{report.n_defaulted} of them; "
    f"{'do not ship' if not document.certificate.satisfied else 'ship'} "
    f"without renegotiating consent."
)
