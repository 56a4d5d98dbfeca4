"""The PangenomicsBench kernel interface and registry.

Each of the paper's eight kernels (plus the SSW case-study baseline) is a
:class:`Kernel`: ``prepare`` generates/loads its dataset (the analog of
Table 3's per-kernel inputs), ``run`` executes the extracted hot code
under an optional :class:`~repro.uarch.events.MachineProbe`, and
``validate`` self-checks the outputs against an oracle where one exists.

``KERNEL_REGISTRY`` is the suite's ``mainRun.py``-style entry point.

Execution variants are selected through the **backend plane**: every
kernel declares the backends it implements (``SUPPORTED_BACKENDS``) and
which one it runs by default (``DEFAULT_BACKEND``), and callers pick one
by name — ``"scalar"`` (the sequential differential oracle),
``"vectorized"`` (the batched default), or ``"gpu"`` (the SIMT device
model, where implemented).  Requesting a backend a kernel does not
implement raises :class:`~repro.errors.KernelError` listing the
supported ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.backends import BACKENDS, GPU, SCALAR, VECTORIZED
from repro.data import DatasetSpec, SuiteData, default_store, scenario_spec
from repro.errors import KernelError
from repro.obs import metrics, trace
from repro.uarch.events import NULL_PROBE, MachineProbe

__all__ = [
    "BACKENDS", "GPU", "SCALAR", "VECTORIZED",
    "KERNEL_REGISTRY", "Kernel", "KernelResult",
    "create_kernel", "kernel_backends", "kernel_names", "register",
    "resolve_backend",
]


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one kernel execution."""

    kernel: str
    wall_seconds: float
    inputs_processed: int
    work: dict[str, float] = field(default_factory=dict)

    def rate(self) -> float:
        """Inputs per second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.inputs_processed / self.wall_seconds


class Kernel(ABC):
    """One extracted benchmark kernel.

    Subclasses set :attr:`name` and :attr:`parent_tool` and implement
    :meth:`prepare` / :meth:`_execute`.  ``scale`` shrinks or grows the
    dataset (1.0 is the suite default, small enough for interactive use).
    """

    name: str = ""
    parent_tool: str = ""
    #: What the kernel's input items are (Table 3's "Input Type").
    input_type: str = ""
    #: Backends this kernel implements.  Kernels with a sequential
    #: oracle add :data:`SCALAR`; device models add :data:`GPU`.
    SUPPORTED_BACKENDS: tuple[str, ...] = (VECTORIZED,)
    #: The backend used when the caller does not pick one.
    DEFAULT_BACKEND: str = VECTORIZED

    def __init__(self, scale: float = 1.0, seed: int = 0,
                 scenario: str = "default",
                 backend: str | None = None) -> None:
        if scale <= 0:
            raise KernelError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.scenario = scenario
        self.backend = _validate_backend(type(self), backend)
        self._prepared = False
        self._prepared_key: str | None = None

    @property
    def spec(self) -> DatasetSpec:
        """The dataset spec this kernel's inputs derive from."""
        return scenario_spec(self.scenario, scale=self.scale, seed=self.seed)

    def dataset(self) -> SuiteData:
        """The shared corpus, via the default artifact store (warm runs
        deserialize; concurrent cold runs build once under a lock)."""
        return default_store().corpus(self.spec)

    def derived(self, name: str, **params) -> object:
        """A registered derivation's output for this kernel's spec,
        cached in the artifact store next to the corpus."""
        return default_store().derived(self.spec, name, **params)

    @abstractmethod
    def prepare(self) -> None:
        """Generate the kernel's dataset (idempotent)."""

    @abstractmethod
    def _execute(self, probe: MachineProbe) -> KernelResult:
        """Run the kernel over the prepared dataset."""

    def ensure_prepared(self) -> None:
        """Prepare (or re-prepare) when the spec changed since the last
        preparation.

        The prepared state is keyed by the spec digest, not a boolean:
        mutating ``scale``/``seed``/``scenario`` after a run used to
        silently reuse the stale dataset.
        """
        key = self.spec.digest()
        if self._prepared and self._prepared_key == key:
            return
        with trace.timed_span(f"kernel/{self.name}/prepare") as prepared:
            self.prepare()
        self._prepared = True
        self._prepared_key = key
        metrics.gauge("kernel.prepare_seconds", kernel=self.name,
                      backend=self.backend).set(prepared.duration)

    def run(self, probe: MachineProbe = NULL_PROBE) -> KernelResult:
        """Prepare if needed, execute, and time the kernel.

        Wall time comes from the span tracer (the one timing source in
        the suite): ``kernel/<name>/prepare`` and ``kernel/<name>/execute``
        spans always measure, and show up in trace exports whenever a
        real tracer is installed (``repro trace`` / ``--trace-out``).
        """
        self.ensure_prepared()
        with trace.timed_span(f"kernel/{self.name}/execute") as span:
            result = self._execute(probe)
        metrics.counter("kernel.runs", kernel=self.name,
                        backend=self.backend).inc()
        metrics.gauge("kernel.execute_seconds", kernel=self.name,
                      backend=self.backend).set(span.duration)
        return KernelResult(
            kernel=result.kernel,
            wall_seconds=span.duration,
            inputs_processed=result.inputs_processed,
            work=result.work,
        )

    def validate(self) -> None:
        """Optional correctness self-check; raises on failure."""


def _validate_backend(cls: type[Kernel], backend: str | None) -> str:
    """Resolve *backend* for *cls*: ``None``/empty means the kernel's
    default; anything else must be a declared, supported backend."""
    if not backend:
        return cls.DEFAULT_BACKEND
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise KernelError(f"unknown backend {backend!r}; known: {known}")
    if backend not in cls.SUPPORTED_BACKENDS:
        supported = ", ".join(cls.SUPPORTED_BACKENDS)
        raise KernelError(
            f"kernel {cls.name!r} does not support backend {backend!r}; "
            f"supported: {supported}")
    return backend


#: name -> kernel class; ``cls(scale=, seed=, scenario=, backend=)``
#: builds a kernel, and the class answers backend resolution without one.
KERNEL_REGISTRY: dict[str, type[Kernel]] = {}


def register(cls: type[Kernel]) -> type[Kernel]:
    """Class decorator adding a kernel to the registry."""
    if not cls.name:
        raise KernelError(f"{cls.__name__} has no kernel name")
    if cls.name in KERNEL_REGISTRY:
        raise KernelError(f"duplicate kernel name {cls.name!r}")
    if cls.DEFAULT_BACKEND not in cls.SUPPORTED_BACKENDS:
        raise KernelError(
            f"kernel {cls.name!r} default backend {cls.DEFAULT_BACKEND!r} "
            f"is not in SUPPORTED_BACKENDS {cls.SUPPORTED_BACKENDS}")
    KERNEL_REGISTRY[cls.name] = cls
    return cls


def _kernel_class(name: str) -> type[Kernel]:
    try:
        return KERNEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(KERNEL_REGISTRY))
        raise KernelError(f"unknown kernel {name!r}; known: {known}") from None


def create_kernel(name: str, scale: float = 1.0, seed: int = 0,
                  scenario: str = "default",
                  backend: str | None = None) -> Kernel:
    """Instantiate a registered kernel by name."""
    return _kernel_class(name)(scale=scale, seed=seed, scenario=scenario,
                               backend=backend)


def resolve_backend(name: str, backend: str | None = None) -> str:
    """The concrete backend kernel *name* would run *backend* on.

    ``None`` resolves to the kernel's :attr:`~Kernel.DEFAULT_BACKEND`;
    an unsupported request raises :class:`~repro.errors.KernelError`
    listing the supported backends.  Used at plan-compile time so cache
    keys always carry the resolved name (an explicit default and an
    implicit one share a digest).
    """
    return _validate_backend(_kernel_class(name), backend)


def kernel_backends(name: str) -> tuple[str, ...]:
    """The backends kernel *name* declares, oracle-first."""
    return _kernel_class(name).SUPPORTED_BACKENDS


def kernel_names() -> list[str]:
    """All registered kernel names, sorted."""
    return sorted(KERNEL_REGISTRY)
