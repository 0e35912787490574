"""Outside-in span tracer for gamehedge's public functions.

Each target is wrapped at every `gamehedge.*` module binding that holds the
same function object, so a call site that later moves between modules stays
traced; methods are wrapped on their class.  Spans (name, start, end,
parent, job id, one count) stay in memory until `write`.  A target that no
longer exists is listed in `missing`, and every metric built on it is
reported as missing rather than as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time


def _lattice_nodes(lattice) -> int:
    n = lattice.n_steps
    alive = (n + 1) * (n + 2) // 2
    return alive + (n * (n + 1) // 2 if lattice.has_default else 0)


def _audit_contexts(args, kwargs, result) -> int:
    lattice = args[1] if len(args) > 1 else kwargs["lattice"]
    return sum(2 if lattice.defaulted_size(k) else 1 for k in range(lattice.n_steps))


def _solve_nodes(args, kwargs, result) -> int:
    return _lattice_nodes(args[0] if args else kwargs["lattice"])


def _paths_and_levels(args, kwargs, result) -> tuple[int, int]:
    lattice = args[3] if len(args) > 3 else kwargs["lattice"]
    return result.n_paths, lattice.n_steps + 1


# span name -> (module, attribute path, count(args, kwargs, result) or None);
# a count is an int, or a pair (count, aux) for a second per-span number
TARGETS = {
    "cli.main": ("gamehedge.cli", "main", None),
    "scenario.from_text": ("gamehedge.scenario", "Scenario.from_text", None),
    "scenario.build": ("gamehedge.scenario", "Scenario.build", None),
    "drivers.audit_driver": ("gamehedge.drivers", "audit_driver", _audit_contexts),
    "validation.apriori_check": ("gamehedge.validation", "apriori_check", None),
    "drbsde.dynkin_bruteforce": ("gamehedge.drbsde", "dynkin_bruteforce",
                                 lambda a, k, r: r.n_pairs),
    "lattice.build_lattice": ("gamehedge.lattice", "build_lattice", None),
    "lattice.layer_regression": ("gamehedge.lattice", "Lattice.layer_regression", None),
    "bsde.implicit_continuation": ("gamehedge.bsde", "implicit_continuation",
                                   lambda a, k, r: r[1]),
    "bsde.solve_bsde": ("gamehedge.bsde", "solve_bsde", None),
    "drbsde.solve_drbsde": ("gamehedge.drbsde", "solve_drbsde", _solve_nodes),
    "drbsde.payoff_layers": ("gamehedge.drbsde", "PayoffSpec.layers", None),
    "robust.robust_seller_price": ("gamehedge.robust", "robust_seller_price", None),
    "robust.robust_certificate": ("gamehedge.robust", "robust_certificate", None),
    "hedging.simulate_wealth": ("gamehedge.hedging", "simulate_wealth", _paths_and_levels),
    "hedging.extract_strategy": ("gamehedge.hedging", "extract_strategy", None),
    "hedging.stopping_time": ("gamehedge.hedging", "stopping_time", None),
}

JOB = "job"


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.count: list[int] = []
        self.aux: list[int] = []
        self.missing: list[str] = []
        self.wrapped: dict[str, int] = {}
        self._stack: list[int] = []
        self._job_id = -1
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job_id)
        self.count.append(0)
        self.aux.append(0)
        self._stack.append(idx)
        return idx

    def begin_job(self, job_id: int) -> float:
        """Open the root span of one job and return its start time."""
        self._job_id = job_id
        idx = self._open(JOB)
        self.start[idx] = time.perf_counter()
        return self.start[idx]

    def end_job(self) -> float:
        """Close the job span (and any span a raising call left open); return its end."""
        now = time.perf_counter()
        for idx in self._stack:
            self.end[idx] = now
        self._stack.clear()
        self._job_id = -1
        return now

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if count is not None:
                c = count(args, kwargs, result)
                if isinstance(c, tuple):
                    c, tracer.aux[idx] = c
                tracer.count[idx] = int(c)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        self.missing, self.wrapped = [], {}
        for name, (module_name, path, count) in self.targets.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                self._install_method(name, getattr(module, owner_name, None), attr, count)
            else:
                self._install_function(name, getattr(module, attr, None), count)

    def _install_function(self, name, fn, count) -> None:
        if not callable(fn):
            self.missing.append(name)
            return
        wrapper = self._wrap(name, fn, count)
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gamehedge" and not mod_name.startswith("gamehedge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
                    sites += 1
        self.wrapped[name] = sites

    def _install_method(self, name, cls, attr, count) -> None:
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(name)
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, count))
        elif callable(raw):
            new = self._wrap(name, raw, count)
        else:
            self.missing.append(name)
            return
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))
        self.wrapped[name] = 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------
    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\tcount\taux\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                         f"{self.parent[i]}\t{self.job[i]}\t{self.count[i]}\t{self.aux[i]}\n")
