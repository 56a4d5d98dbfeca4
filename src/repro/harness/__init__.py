"""The suite engine (the ``mainRun.py`` analog): studies, executor, store."""

from repro.harness.executor import (
    ExecutionPlan,
    Job,
    compile_plan,
    execute_plan,
)
from repro.harness.runner import (
    ALL_STUDIES,
    SCHEMA_VERSION,
    KernelReport,
    load_reports,
    run_kernel_studies,
    run_suite,
    save_reports,
)
from repro.harness.store import ResultStore, job_digest
from repro.harness.studies import (
    STUDY_REGISTRY,
    Study,
    create_study,
    register_study,
    study_names,
)

__all__ = [
    "ALL_STUDIES", "SCHEMA_VERSION", "KernelReport", "load_reports",
    "run_kernel_studies", "run_suite", "save_reports",
    "ExecutionPlan", "Job", "compile_plan", "execute_plan",
    "ResultStore", "job_digest",
    "STUDY_REGISTRY", "Study", "create_study", "register_study",
    "study_names",
]
