"""Static analysis for the factorised-database reproduction.

Two halves behind one findings format (see
:mod:`repro.analysis.findings`):

- the **semantic verifier** (:mod:`repro.analysis.verifier`,
  :mod:`repro.analysis.typecheck`): f-tree invariants, f-plan operator
  pre/post-conditions, and expression type checks — available at
  prepare time behind the ``verify=True`` session knob, and in bulk via
  ``python -m repro analyze``;
- the **codebase linter** (:mod:`repro.analysis.linter`): stdlib
  ``ast`` rules for the repo's concurrency discipline (lock guarding,
  copy-on-write relations, frozen/published immutability, async
  blocking).
"""

from repro.analysis.findings import (
    Finding,
    Report,
    is_suppressed,
    suppressed_rules,
)
from repro.analysis.linter import lint_file, lint_paths, lint_source
from repro.analysis.typecheck import check_query_types, infer_column_types
from repro.analysis.verifier import (
    PlanVerificationError,
    verify_artifact,
    verify_compiled,
    verify_ftree,
    verify_plan,
)

__all__ = [
    "Finding",
    "Report",
    "PlanVerificationError",
    "check_query_types",
    "infer_column_types",
    "is_suppressed",
    "lint_file",
    "lint_paths",
    "lint_source",
    "suppressed_rules",
    "verify_artifact",
    "verify_compiled",
    "verify_ftree",
    "verify_plan",
]
