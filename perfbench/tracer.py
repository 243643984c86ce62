"""Span recorder that wraps pfqint's public functions from outside.

While a task runs under ``SpanRecorder.op`` every wrapped call records
(name, start, end, parent span) in flat arrays; nothing is written until the
run ends.  A call made directly from a span of the same name (recursion in
``log_gamma``, ``laplace_erf`` delegating to ``laplace_moment_gaussian``) is
folded into the outer span.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

ROOT = "op"


def _pfq_counts(res):
    return res.terms_used, 0 if res.converged else 1


def _pfq_exc_counts(exc):
    res = getattr(exc, "result", None)
    return (res.terms_used, 1) if res is not None and hasattr(res, "terms_used") else (0, 1)


def _block_counts(res):
    return res.outer_terms, 0


def _quad_counts(res):
    return res.evaluations, 0


# (module, attribute, span name, counters on return, counters on exception).
# Each function is wrapped at every module attribute other modules call it
# through; the benchmark itself calls through these same attributes.
_PFQ = ("special_functions.pfq", _pfq_counts, _pfq_exc_counts)
_BLOCK = ("series_integrals.series_block", _block_counts, None)
_FD = ("oracle.fd", None, None)
PATCHES = (
    [(m, "pfq") + _PFQ for m in
     ("special_functions", "series_integrals", "transforms", "orr_sommerfeld", "cli")]
    + [(m, "log_gamma", "special_functions.log_gamma", None, None)
       for m in ("special_functions", "transforms")]
    + [(m, "pochhammer", "special_functions.pochhammer", None, None)
       for m in ("special_functions", "identities")]
    + [(m, a, "special_functions.asymptotic", None, None) for m, a in (
        ("special_functions", "pfq_1f1_asymptotic"),
        ("special_functions", "two_f_zero_asymptotic"),
        ("transforms", "two_f_zero_asymptotic"))]
    + [("series_integrals", a, "series_integrals." + a, None, None)
       for a in ("antiderivative", "definite_integral", "lifted_params", "integrand_value")]
    + [(m, "series_block") + _BLOCK for m in ("series_integrals", "identities")]
    + [("identities", a, "identities." + a, None, None)
       for a in ("theorem_residual", "lemma1_residual")]
    + [("transforms", a, "transforms.fourier", None, None)
       for a in ("fourier_gaussian", "fourier_moment_gaussian")]
    + [("transforms", a, "transforms.laplace", None, None)
       for a in ("laplace_moment_gaussian", "laplace_erf")]
    + [(m, a, "oracle." + a, _quad_counts, None) for m, a in (
        ("oracle", "quad_finite"), ("orr_sommerfeld", "quad_finite"),
        ("oracle", "quad_semi_infinite"), ("orr_sommerfeld", "quad_semi_infinite"),
        ("oracle", "quad_oscillatory_fourier"))]
    + [(m, "fd_derivative_n") + _FD for m in ("oracle", "orr_sommerfeld")]
    + [("orr_sommerfeld", a, "orr_sommerfeld." + a, None, None)
       for a in ("phi_quadrature", "os_residual", "airy_ai")]
    + [("cli", "run", "cli.run", None, None)]
)
QUAD_SPANS = ("oracle.quad_finite", "oracle.quad_semi_infinite", "oracle.quad_oscillatory_fourier")


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("d")  # terms, outer terms, evaluations, f calls
        self.count_b = array("d")  # not-converged results
        self._stack: list[int] = []
        self._marks: list[tuple[int, float]] = []  # (first span after block, factor)
        self._patches = []
        for module, attr, name, on_return, on_raise in PATCHES:
            mod = importlib.import_module("pfqint." + module)
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original,
                                  self.wrap(name, original, on_return, on_raise)))

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count_a.append(0.0)
        self.count_b.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name, fn, on_return=None, on_raise=None):
        nid = self.name_id(name)
        count_f = name == "oracle.fd"
        stack, names, start, end = self._stack, self.name, self.start, self.end
        count_a, count_b = self.count_a, self.count_b

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            if count_f:
                f = args[0]

                def counted(x):
                    count_a[idx] += 1
                    return f(x)

                args = (counted,) + args[1:]
            start[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if on_raise is not None:
                    a, b = on_raise(exc)
                    count_a[idx] += a
                    count_b[idx] += b
                raise
            end[idx] = perf_counter()
            stack.pop()
            if on_return is not None:
                a, b = on_return(out)
                count_a[idx] += a
                count_b[idx] += b
            return out

        return traced

    def op(self, fn, *args):
        """Run one task traced, under a root span that all its spans share."""
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)
        idx = self._open(self.name_id(ROOT))
        self.start[idx] = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def mark(self, factor: float) -> None:
        """Scale the self time of the spans recorded since the last mark."""
        self._marks.append((len(self.name), factor))

    # ------------------------------------------------------------------

    def _has_ancestor(self, i: int, target: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == target:
                return True
            p = self.parent[p]
        return False

    def summary(self) -> dict:
        """Per-name calls, self seconds and counters, plus the cross-layer counts."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per = {name: {"calls": 0, "self_s": 0.0, "a": 0.0, "b": 0.0} for name in self.names}
        marks = iter(self._marks + [(n, 1.0)])
        limit, factor = next(marks)
        for i in range(n):
            while i >= limit:
                limit, factor = next(marks)
            rec = per[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += (self.end[i] - self.start[i] - child[i]) * factor
            rec["a"] += self.count_a[i]
            rec["b"] += self.count_b[i]

        ids = {name: self.name_id(name) for name in (
            "special_functions.pfq", "series_integrals.series_block",
            "series_integrals.antiderivative", "identities.theorem_residual",
            "orr_sommerfeld.phi_quadrature", "orr_sommerfeld.os_residual") + QUAD_SPANS}
        quad_ids = {ids[q] for q in QUAD_SPANS}
        rel = {"pfq_in_block": 0, "blocks_in_antiderivative": 0, "blocks_in_residual": 0,
               "quad_evaluations": 0.0, "evals_in_phi": 0.0, "phi_in_residual": 0}
        for i in range(n):
            nid, p = self.name[i], self.parent[i]
            if nid == ids["special_functions.pfq"]:
                if p >= 0 and self.name[p] == ids["series_integrals.series_block"]:
                    rel["pfq_in_block"] += 1
            elif nid == ids["series_integrals.series_block"]:
                if self._has_ancestor(i, ids["series_integrals.antiderivative"]):
                    rel["blocks_in_antiderivative"] += 1
                if self._has_ancestor(i, ids["identities.theorem_residual"]):
                    rel["blocks_in_residual"] += 1
            elif nid in quad_ids and not (p >= 0 and self.name[p] in quad_ids):
                rel["quad_evaluations"] += self.count_a[i]
                if self._has_ancestor(i, ids["orr_sommerfeld.phi_quadrature"]):
                    rel["evals_in_phi"] += self.count_a[i]
            elif nid == ids["orr_sommerfeld.phi_quadrature"]:
                if self._has_ancestor(i, ids["orr_sommerfeld.os_residual"]):
                    rel["phi_in_residual"] += 1
        for name in ids:
            per.setdefault(name, {"calls": 0, "self_s": 0.0, "a": 0.0, "b": 0.0})
        return {"per": per, "rel": rel}

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, parent, name, start and end in us."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n")
