"""Span recording around cohevol's layer boundaries, installed from outside.

A span is ``[job, name, start, end, parent, tag]``: the job it belongs to,
the layer boundary it times, ``time.perf_counter`` stamps, the index of the
enclosing span (-1 at top level) and a small payload (a basis size, a
command name).  Spans stay in memory; the runner aggregates and writes them
out when the run ends.

Nothing inside the package is edited.  :meth:`Tracer.install` replaces the
module attributes that callers look up at call time (for example
``cohevol.harness.oracle_average`` or ``cohevol.cli.cmd_evolve``) and the
``FockRepresentation.eigensystem`` method with timing wrappers;
:meth:`Tracer.uninstall` puts the originals back.  While ``enabled`` is
false a wrapper only forwards the call.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

EIGH_DIMS = (64, 128, 256, 512, 1024, 2048)

# Quantum closed-form entry points, by the modules that look them up.
_CLOSED_FORM = {
    "harness": ("hyperbolic_xn_average", "elliptic_quantum_average", "hyperbolic_xn_log10_magnitude"),
    "closedform": (
        "hyperbolic_xn_average",
        "elliptic_quantum_average",
        "hyperbolic_xn_log10_magnitude",
        "hyperbolic_xn_paths",
    ),
}
_COMMANDS = (
    "cmd_evolve",
    "cmd_compare",
    "cmd_collapse_scan",
    "cmd_ehrenfest",
    "cmd_dispersion_regimes",
)


class Tracer:
    """Records spans and counts for one run; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.builds: set = set()
        self.enabled = False
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.builds = set()

    def span(self, name: str, fn, tag=None, on_return=None, errors=()):
        """Run ``fn()`` inside a span; count listed exception types by name."""
        index = len(self.spans)
        record = [self.job, name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn()
        except errors as exc:
            self.counts[f"{name}:{type(exc).__name__}"] += 1
            raise
        finally:
            record[3] = perf_counter()
            self._stack.pop()
        if on_return is not None:
            on_return(result)
        return result

    def wrap(self, name: str, fn, tag_of=None, on_return=None, errors=()):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tag = tag_of(*args, **kwargs) if tag_of is not None else None
            return tracer.span(
                name, lambda: fn(*args, **kwargs), tag,
                None if on_return is None else (lambda r: on_return(r, *args, **kwargs)),
                errors,
            )

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import cohevol.cli as cli
        import cohevol.closedform as closedform
        import cohevol.core as core
        import cohevol.fock as fock
        import cohevol.harness as harness

        residual = importlib.import_module("cohevol.residual")  # shadowed by the function

        if self._patches:
            return
        modules = {"harness": harness, "closedform": closedform}
        wrapped_closed: dict = {}
        for module_name, names in _CLOSED_FORM.items():
            for attr in names:
                original = getattr(closedform, attr)
                if attr not in wrapped_closed:
                    wrapped_closed[attr] = self.wrap(
                        "closedform", original, errors=(core.CollapseProximity,)
                    )
                self._patch(modules[module_name], attr, wrapped_closed[attr])

        self._patch(cli, "main", self.wrap("cli", cli.main))
        self._patch(cli, "load_config", self.wrap("harness.parse", cli.load_config))
        for attr in _COMMANDS:
            command = attr[4:].replace("_", "-")
            self._patch(cli, attr, self.wrap("harness.cmd", getattr(cli, attr), tag_of=lambda *a, c=command, **k: c))
        self._patch(cli, "render", self.wrap("harness.render", cli.render, on_return=self._count_rendered))

        oracle = self.wrap("fock.oracle", fock.oracle_average, on_return=self._count_value)
        self._patch(harness, "oracle_average", oracle)
        self._patch(fock, "oracle_average", oracle)
        self._patch(
            fock, "build_hamiltonian",
            self.wrap("fock.build", fock.build_hamiltonian, tag_of=self._build_key),
        )
        self._patch(
            fock, "coherent_vector",
            self.wrap("fock.coherent", fock.coherent_vector, errors=(core.TailMassError,)),
        )
        for attr in ("propagate_expectation", "monomial_expectation"):
            self._patch(fock, attr, self.wrap("fock.propagate", getattr(fock, attr)))
        eigensystem = fock.FockRepresentation.eigensystem
        tracer = self

        @functools.wraps(eigensystem)
        def traced_eigensystem(rep):
            # Only the first call per representation decomposes; later calls
            # return the cached pair and are not spans.
            if not tracer.enabled or rep._eig is not None:
                return eigensystem(rep)
            return tracer.span("fock.eigh", lambda: eigensystem(rep), rep.dim)

        self._patch(fock.FockRepresentation, "eigensystem", traced_eigensystem)

        self._patch(residual, "residual", self.wrap("residual", residual.residual))
        self._patch(residual, "generate_operator", self.wrap("residual.operator", residual.generate_operator))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def candidate(self, f):
        """Wrap a residual candidate so its time is not residual self time."""
        return self.wrap("residual.candidate", f)

    # -- hooks -------------------------------------------------------------

    def _build_key(self, kind, params, dim):
        key = (kind, params.omega, params.mu, params.hbar, int(dim))
        self.builds.add(key)
        return int(dim)

    def _count_value(self, _value, *args, **kwargs) -> None:
        self.counts["fock.values"] += 1

    def _count_rendered(self, text, result, config, command) -> None:
        self.counts["harness.rows"] += len(result.rows)
        if command == "evolve":
            self.counts["harness.closed_values"] += sum(
                1 for row in result.rows if row[3] == "closed" and row[1] is not None
            )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _ancestor_tag(spans: list[list], index: int, name: str):
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][1] == name:
            return spans[parent][5]
        parent = spans[parent][4]
    return None


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals for the spans and counts recorded since the last reset."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    total: dict = defaultdict(float)
    self_total: dict = defaultdict(float)
    calls: Counter = Counter()
    eigh_by_dim: dict = defaultdict(float)
    eigh_dims: list[int] = []
    evolve_closed_calls = 0
    for i, s in enumerate(spans):
        name = s[1]
        calls[name] += 1
        total[name] += s[3] - s[2]
        self_total[name] += own[i]
        if name == "fock.eigh":
            eigh_by_dim[s[5]] += s[3] - s[2]
            eigh_dims.append(s[5])
        elif name == "closedform" and _ancestor_tag(spans, i, "harness.cmd") == "evolve":
            evolve_closed_calls += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "cli.calls": calls["cli"],
        "cli.self_s": self_total["cli"],
        "cli.bytes_out": counts["cli.bytes_out"],
        "harness.parse_s": total["harness.parse"],
        "harness.cmd_self_s": self_total["harness.cmd"],
        "harness.render_s": total["harness.render"],
        "harness.rows": counts["harness.rows"],
        "harness.evals_per_value": ratio(evolve_closed_calls, counts["harness.closed_values"]),
        "closedform.calls": calls["closedform"],
        "closedform.s": total["closedform"],
        "closedform.us_per_call": 1e6 * ratio(total["closedform"], calls["closedform"]),
        "closedform.guard_hits": counts["closedform:CollapseProximity"],
        "residual.calls": calls["residual"],
        "residual.self_s": self_total["residual"],
        "residual.operator_s": total["residual.operator"],
        "residual.f_evals_per_call": ratio(calls["residual.candidate"], calls["residual"]),
        "fock.build_calls": calls["fock.build"],
        "fock.build_unique": len(tracer.builds),
        "fock.build_s": total["fock.build"],
        "fock.eigh_calls": calls["fock.eigh"],
        "fock.eigh_s": total["fock.eigh"],
    }
    for dim in EIGH_DIMS:
        metrics[f"fock.eigh_s.{dim}"] = eigh_by_dim.get(dim, 0.0)
    metrics.update({
        "fock.eigh_dim3_sum": float(sum(d**3 for d in eigh_dims)),
        "fock.max_dim": max(eigh_dims, default=0),
        "fock.oracle_calls": calls["fock.oracle"],
        "fock.oracle_s": total["fock.oracle"],
        "fock.coherent_calls": calls["fock.coherent"],
        "fock.coherent_s": total["fock.coherent"],
        "fock.tailmass_retries": counts["fock.coherent:TailMassError"],
        "fock.propagate_calls": calls["fock.propagate"],
        "fock.propagate_s": self_total["fock.propagate"],
        "fock.values_per_propagation": ratio(counts["fock.values"], calls["fock.propagate"]),
    })
    return metrics


def mean_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Average each metric over traced passes (max for the largest basis)."""
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        out[name] = max(values) if name == "fock.max_dim" else statistics.fmean(values)
    return out
