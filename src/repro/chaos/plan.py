"""Deterministic fault plans: what fails, where, and when.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules consulted by the
simulated CUDA runtime at every *fault site* (allocation, transfer, kernel
launch, library call).  Each rule names

* a **site pattern** — an ``fnmatch`` glob over site names such as
  ``cuda.alloc``, ``cuda.h2d``, ``cuda.kernel:compute_similarity``,
  ``cusparse.csrmv`` or ``cublas.gemm``;
* an optional **stage pattern** matched against the device's current
  timeline tag (``similarity``, ``laplacian``, ``eigensolver``,
  ``kmeans``) so a fault can be aimed at one pipeline phase;
* a **fault type** — ``oom`` (:class:`~repro.errors.DeviceMemoryError`),
  ``transfer`` (:class:`~repro.errors.TransferError`) or ``transient``
  (:class:`~repro.errors.TransientKernelError`);
* a **trigger** — exactly one of ``nth`` (fire on the N-th matching call),
  ``prob`` (per-call probability from a spec-local seeded RNG) or
  ``after_bytes`` (fire once the cumulative bytes through matching sites
  cross a threshold).

Plans are *deterministic*: the same specs and seed produce the same fault
schedule against the same workload, which is what makes chaos runs
reproducible and lets tests assert that two faulted runs agree bit-for-bit.
Every fired fault is appended to :attr:`FaultPlan.log`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from repro.errors import (
    ChaosError,
    DeviceMemoryError,
    TransferError,
    TransientKernelError,
)

#: fault type -> exception class raised at the site
FAULT_ERRORS = {
    "oom": DeviceMemoryError,
    "transfer": TransferError,
    "transient": TransientKernelError,
}

#: the canonical site names the runtime consults (kernel sites are
#: parameterized by kernel name: ``cuda.kernel:<name>``)
KNOWN_SITES = (
    "cuda.alloc",
    "cuda.h2d",
    "cuda.d2h",
    "cuda.p2p",
    "cuda.kernel:*",
    "cuda.stream.sync",
    "cuda.stream.event",
    "cusparse.csrmv",
    "cusparse.coomv",
    "cusparse.ellmv",
    "cusparse.csrmm",
    "cusparse.ellmm",
    "cusparse.csr2ell",
    "cublas.*",
    "compressive.filter",
    "compressive.gather",
    "compressive.solve",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: site pattern × fault type × trigger.

    Exactly one of ``nth``, ``prob``, ``after_bytes`` must be set.
    ``max_fires`` caps how often the rule fires (``None`` = unlimited);
    the default of 1 models a one-off hiccup, which is the retryable case.
    """

    site: str
    fault: str
    nth: int | None = None
    prob: float | None = None
    after_bytes: int | None = None
    max_fires: int | None = 1
    stage: str | None = None

    def __post_init__(self) -> None:
        if self.fault not in FAULT_ERRORS:
            raise ChaosError(
                f"unknown fault type {self.fault!r}; "
                f"expected one of {sorted(FAULT_ERRORS)}"
            )
        triggers = [t for t in (self.nth, self.prob, self.after_bytes) if t is not None]
        if len(triggers) != 1:
            raise ChaosError(
                "exactly one trigger (nth, prob, after_bytes) must be set, "
                f"got {len(triggers)} on site {self.site!r}"
            )
        if self.nth is not None and self.nth < 1:
            raise ChaosError(f"nth trigger must be >= 1, got {self.nth}")
        if self.prob is not None and not 0.0 < self.prob <= 1.0:
            raise ChaosError(f"prob trigger must be in (0, 1], got {self.prob}")
        if self.after_bytes is not None and self.after_bytes < 0:
            raise ChaosError(f"after_bytes must be >= 0, got {self.after_bytes}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ChaosError(f"max_fires must be >= 1 or None, got {self.max_fires}")

    def matches(self, site: str, stage: str) -> bool:
        """Whether this rule applies to a call at ``site`` in ``stage``."""
        if not fnmatchcase(site, self.site):
            return False
        if self.stage is not None and not fnmatchcase(stage, self.stage):
            return False
        return True


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: the concrete site, the rule, and the call count."""

    site: str
    stage: str
    fault: str
    spec_index: int
    call_index: int


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Parameters
    ----------
    specs:
        The fault rules, consulted in order at every site.
    seed:
        Seeds the per-spec RNGs used by probabilistic triggers; two plans
        with equal specs and seed produce identical schedules.
    """

    def __init__(self, specs, seed: int = 0) -> None:
        specs = tuple(specs)
        for s in specs:
            if not isinstance(s, FaultSpec):
                raise ChaosError(f"expected FaultSpec, got {type(s).__name__}")
        self.specs = specs
        if int(seed) < 0:
            raise ChaosError(f"chaos seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self.log: list[FaultEvent] = []
        self._calls: list[int] = []
        self._bytes: list[int] = []
        self._fires: list[int] = []
        self._rngs: list[np.random.Generator] = []
        self.reset()

    def reset(self) -> None:
        """Rewind all counters and RNGs; the plan replays identically."""
        n = len(self.specs)
        self._calls = [0] * n
        self._bytes = [0] * n
        self._fires = [0] * n
        self._rngs = [np.random.default_rng([self.seed, i]) for i in range(n)]
        self.log = []

    # ------------------------------------------------------------------
    def check(self, site: str, stage: str = "", nbytes: int = 0) -> None:
        """Consult the plan at one fault site; raise if a rule fires."""
        for i, spec in enumerate(self.specs):
            if not spec.matches(site, stage):
                continue
            self._calls[i] += 1
            self._bytes[i] += int(nbytes)
            if spec.max_fires is not None and self._fires[i] >= spec.max_fires:
                continue
            if spec.nth is not None:
                fire = self._calls[i] == spec.nth
            elif spec.prob is not None:
                fire = bool(self._rngs[i].random() < spec.prob)
            else:
                assert spec.after_bytes is not None
                fire = self._bytes[i] >= spec.after_bytes
            if fire:
                self._fires[i] += 1
                ev = FaultEvent(
                    site=site, stage=stage, fault=spec.fault,
                    spec_index=i, call_index=self._calls[i],
                )
                self.log.append(ev)
                raise FAULT_ERRORS[spec.fault](
                    f"injected {spec.fault} fault at {site}"
                    f"{f' (stage {stage})' if stage else ''} "
                    f"[spec {i}, call {self._calls[i]}]"
                )

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> tuple[FaultEvent, ...]:
        """The faults fired so far, in firing order."""
        return tuple(self.log)

    @property
    def n_fired(self) -> int:
        return len(self.log)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
            f"fired={self.n_fired}>"
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_seed(cls, seed: int, n_faults: int = 3) -> "FaultPlan":
        """Generate a random (but deterministic) chaos plan from a seed.

        Picks ``n_faults`` rules over the canonical site families with
        nth-call triggers drawn early enough to land inside a typical
        pipeline run.  The CLI's ``--chaos SEED`` flag maps here.
        """
        if n_faults < 1:
            raise ChaosError(f"n_faults must be >= 1, got {n_faults}")
        if seed < 0:
            raise ChaosError(f"chaos seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        families = (
            ("cuda.alloc", "oom", 30),
            ("cuda.h2d", "transfer", 20),
            ("cuda.d2h", "transfer", 20),
            ("cuda.kernel:*", "transient", 40),
            ("cusparse.*mv", "transient", 10),
            ("cublas.*", "transient", 10),
        )
        specs = []
        for _ in range(n_faults):
            site, fault, span = families[int(rng.integers(len(families)))]
            specs.append(
                FaultSpec(site=site, fault=fault, nth=int(rng.integers(1, span + 1)))
            )
        return cls(specs, seed=seed)
