"""Static analysis, deep graph verification, and runtime sanitizers.

TrioSim's accuracy rests on invariants the simulation engine itself never
checks: traces must form acyclic operator/tensor graphs with consistent
byte counts, configs must describe connected topologies with plausible
link parameters, extrapolated task graphs must be deadlock-free, and the
flow network must conserve link capacity.  This package checks all of
them:

* a **rule framework** — :class:`Finding` / :class:`Report` /
  :class:`RuleRegistry` with stable rule ids, enable/disable, a
  self-asserting catalogue (:func:`check_catalogue`), and text + JSON +
  SARIF reporters;
* **static lint passes** — :func:`lint_trace`, :func:`lint_config`,
  :func:`lint_taskgraph`, :func:`lint_spec`, :func:`lint_plan`,
  :func:`lint_path` (the ``repro lint`` CLI);
* a **deep graph verifier** (:mod:`repro.analysis.verifier`) —
  :func:`verify_path` / :func:`verify_taskgraph` / :func:`verify_plan` /
  :func:`verify_config` / :func:`verify_spec` run whole-graph ``DV``
  rules (SCC cycle extraction, dead-task reachability, cross-rank
  collective matching, static peak-memory bounding, critical-path/slack
  annotation) over live task graphs and cached extrapolation plans (the
  ``repro verify`` CLI and the ``--verify`` gates);
* **runtime sanitizers** — :class:`SanitizerSuite` hooks time
  monotonicity, the max-min fairness certificate, and event-heap hygiene
  into a running simulation (the ``--sanitize`` flag);
* **determinism race detectors** — :class:`RaceDetectorSuite` rides the
  engine/hook fast paths and certifies the bit-identical determinism
  contract (``RC`` rules: tie-order races, happens-before violations,
  global-RNG drift).

See ``docs/linting.md`` for the lint catalogue and ``docs/verifier.md``
for the verifier rules and the determinism contract.
"""

from repro.analysis.findings import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    AnalysisError,
    Finding,
    Report,
)
from repro.analysis.registry import (
    DEFAULT_REGISTRY,
    RULE_SERIES,
    Rule,
    RuleRegistry,
    check_catalogue,
    load_rules,
)
from repro.analysis.linter import (
    detect_kind,
    lint_config,
    lint_path,
    lint_plan,
    lint_spec,
    lint_taskgraph,
    lint_trace,
)
from repro.analysis.reporters import (
    render_catalogue,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.sanitizers import (
    AllocatorWarningSanitizer,
    HeapLeakSanitizer,
    MaxMinCertificate,
    SanitizerSuite,
    TimeMonotonicSanitizer,
)
from repro.analysis.verifier import (
    GraphView,
    RaceDetectorSuite,
    plan_summary,
    verify_config,
    verify_path,
    verify_plan,
    verify_spec,
    verify_taskgraph,
)

__all__ = [
    "ERROR",
    "INFO",
    "RULE_SERIES",
    "SEVERITIES",
    "WARNING",
    "AllocatorWarningSanitizer",
    "AnalysisError",
    "DEFAULT_REGISTRY",
    "Finding",
    "GraphView",
    "HeapLeakSanitizer",
    "MaxMinCertificate",
    "RaceDetectorSuite",
    "Report",
    "Rule",
    "RuleRegistry",
    "SanitizerSuite",
    "TimeMonotonicSanitizer",
    "check_catalogue",
    "detect_kind",
    "lint_config",
    "lint_path",
    "lint_plan",
    "lint_spec",
    "lint_taskgraph",
    "lint_trace",
    "load_rules",
    "plan_summary",
    "render_catalogue",
    "render_json",
    "render_sarif",
    "render_text",
    "verify_config",
    "verify_path",
    "verify_plan",
    "verify_spec",
    "verify_taskgraph",
]
