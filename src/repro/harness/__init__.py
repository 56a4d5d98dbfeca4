"""The suite engine (the ``mainRun.py`` analog): studies, executor, store."""

from repro.harness.executor import (
    ExecutionPlan,
    Job,
    compile_plan,
    execute_jobs,
)
from repro.harness.runner import (
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
    "SCHEMA_VERSION", "KernelReport", "load_reports",
    "run_kernel_studies", "run_suite", "save_reports",
    "ExecutionPlan", "Job", "compile_plan", "execute_jobs",
    "ResultStore", "job_digest",
    "STUDY_REGISTRY", "Study", "create_study", "register_study",
    "study_names",
]
