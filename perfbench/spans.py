"""Spans around qverify's public functions, installed from outside the package.

Each wrapper replaces a name where its caller looks it up (a module global
such as `qverify.cli.build_problem`, or a class attribute such as
`Qubo.objective_table`), so nothing inside `src/` changes.  A span records
the request id, its own id, the enclosing span, the layer name, start and
end, and counts taken from the wrapped call's arguments or return value.

Times are reported two ways: `<layer>.s` is the wall time of the layer's
spans including wrapped callees, and `<layer>.self_s` subtracts the time of
the spans nested directly inside them.  Table bytes are computed as
2^n x itemsize from the table's variable count, not measured.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _table_bytes(attr):
    def count(args, kwargs, result):
        return {"bytes": (1 << getattr(args[0], attr)) * 8}
    return count


def _mask_count(args, kwargs, result):
    return {"assignments": 1 << args[0].num_variables}


def _optimizer_count(args, kwargs, result):
    return {"evaluations": result.evaluations, "iterations": len(result.trace)}


def _solver_count(args, kwargs, result):
    out = {"shots_used": result.shots_used, "schedule_points": 0, "degree": 0, "qsvt": 0}
    if result.solver == "grover":
        out["schedule_points"] = len(result.convergence_trace)
    if result.solver == "qsvt":
        out["degree"] = result.config["degree"]
        out["qsvt"] = 1
    return out


def _hit_count(args, kwargs, result):
    return {"hits": int(bool(result))}


def _targets():
    """(owner, attribute, layer, counter) for every wrapped lookup."""
    import qverify.checker as checker
    import qverify.cli as cli
    import qverify.pipeline as pipeline
    import qverify.simulator as simulator
    import qverify.solvers.grover as grover
    import qverify.solvers.qsvt as qsvt
    import qverify.solvers.vqa as vqa
    from qverify.cnf import CnfFormula
    from qverify.reduction import IsingModel, Qubo

    targets = [
        (cli, "build_problem", "pipeline.build_problem", None),
        (cli, "solve", "pipeline.solve", None),
        (cli, "report_dict", "pipeline.report", None),
        (cli, "dump_json", "pipeline.report", None),
        (cli, "parse_dimacs", "cnf.parse_dimacs", _text_bytes),
        (checker, "parse_dimacs", "cnf.parse_dimacs", _text_bytes),
        (cli, "generate_synthetic", "synthetic.generate_synthetic", None),
        (cli, "run_model_checker", "checker.run_model_checker", None),
        (pipeline, "cnf_to_qubo", "reduction.cnf_to_qubo", None),
        (pipeline, "qubo_to_ising", "reduction.qubo_to_ising", None),
        (pipeline, "qubo_spectrum", "oracle.qubo_spectrum", None),
        (pipeline, "compute_gap", "reduction.compute_gap", None),
        (Qubo, "objective_table", "reduction.objective_table", _table_bytes("num_vars")),
        (IsingModel, "energy_table", "reduction.energy_table", _table_bytes("n")),
        (simulator, "satisfying_mask", "cnf.satisfying_mask", _mask_count),
        (CnfFormula, "evaluate", "cnf.evaluate", _hit_count),
        (grover, "phase_oracle", "simulator.phase_oracle", None),
        (grover, "grover_diffusion", "simulator.grover_diffusion", None),
        (qsvt, "eval_filter", "solvers.filters.eval_filter", None),
        (qsvt, "post_select", "simulator.post_select", None),
        (vqa, "qaoa_state", "solvers.vqa.qaoa_state", None),
        (vqa, "vqe_state", "solvers.vqa.vqe_state", None),
        (vqa, "apply_diagonal_phase", "simulator.apply_diagonal_phase", None),
        (vqa, "apply_rx_all", "simulator.apply_rx_all", None),
        (vqa, "minimize", "optimizers.minimize", _optimizer_count),
    ]
    for name in ("solve_grover", "solve_qaoa", "solve_vqe", "solve_qsvt"):
        targets.append((pipeline, name, f"solvers.{name}", _solver_count))
    for module in (pipeline, grover, qsvt, vqa):
        targets.append((module, "first_verified", "solvers.first_verified", None))
    for module in (grover, qsvt, vqa):
        targets.append((module, "sample", "simulator.sample", None))
    return targets


class Tracer:
    """In-memory span recorder; spans are written out only by `dump`."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for owner, attr, layer, counter in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, layer, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, layer, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if counter and result is not None else None
                spans[sid] = (self.request, sid, parent, layer, start, end, counts)

        traced.__wrapped__ = original
        return traced

    def aggregate(self) -> dict:
        """Per layer: calls, inclusive and self seconds, summed counts, and
        the largest single `bytes` count."""
        child = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for _, sid, _, layer, start, end, counts in self.spans:
            row = out.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_bytes": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[sid]
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
            if counts and "bytes" in counts:
                row["max_bytes"] = max(row["max_bytes"], counts["bytes"])
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("request,span,parent,layer,start_s,end_s,counts\n")
            for rid, sid, parent, layer, start, end, counts in self.spans:
                handle.write(f"{rid},{sid},{parent},{layer},{start!r},{end!r},"
                             f"{json.dumps(counts) if counts else ''}\n")


def _ratio(num, den):
    return lambda agg: _get(agg, *num) / _get(agg, *den) if _get(agg, *den) else 0.0


def _get(agg, layer, key):
    return agg.get(layer, {}).get(key, 0)


def _sum(*cells):
    return lambda agg: sum(_get(agg, layer, key) for layer, key in cells)


_SOLVERS = ("solvers.solve_grover", "solvers.solve_qaoa", "solvers.solve_vqe",
            "solvers.solve_qsvt")

# (metric, (layer, field) or a function of the aggregate); the units are the
# ones BENCHMARK.json declares
LAYER_METRICS = [
    ("reduction.objective_table.s", ("reduction.objective_table", "s")),
    ("reduction.objective_table.calls", ("reduction.objective_table", "calls")),
    ("reduction.objective_table.bytes", ("reduction.objective_table", "bytes")),
    ("oracle.qubo_spectrum.self_s", ("oracle.qubo_spectrum", "self_s")),
    ("reduction.table_bytes.peak",
     lambda agg: max(_get(agg, "reduction.objective_table", "max_bytes"),
                     _get(agg, "reduction.energy_table", "max_bytes"))),
    ("reduction.energy_table.s", ("reduction.energy_table", "s")),
    ("reduction.energy_table.calls", ("reduction.energy_table", "calls")),
    ("reduction.energy_table.bytes", ("reduction.energy_table", "bytes")),
    ("reduction.cnf_to_qubo.s", ("reduction.cnf_to_qubo", "s")),
    ("reduction.qubo_to_ising.s", ("reduction.qubo_to_ising", "s")),
    ("reduction.compute_gap.s", ("reduction.compute_gap", "s")),
    ("cnf.satisfying_mask.s", ("cnf.satisfying_mask", "s")),
    ("cnf.satisfying_mask.calls", ("cnf.satisfying_mask", "calls")),
    ("cnf.satisfying_mask.assignments", ("cnf.satisfying_mask", "assignments")),
    ("simulator.phase_oracle.self_s", ("simulator.phase_oracle", "self_s")),
    ("simulator.grover_diffusion.s", ("simulator.grover_diffusion", "s")),
    ("solvers.grover.schedule_points", ("solvers.solve_grover", "schedule_points")),
    ("simulator.apply_rx_all.s", ("simulator.apply_rx_all", "s")),
    ("simulator.apply_diagonal_phase.s", ("simulator.apply_diagonal_phase", "s")),
    ("solvers.vqa.qaoa_state.s", ("solvers.vqa.qaoa_state", "s")),
    ("solvers.vqa.qaoa_state.calls", ("solvers.vqa.qaoa_state", "calls")),
    ("solvers.vqa.vqe_state.s", ("solvers.vqa.vqe_state", "s")),
    ("solvers.vqa.vqe_state.calls", ("solvers.vqa.vqe_state", "calls")),
    ("optimizers.minimize.s", ("optimizers.minimize", "s")),
    ("optimizers.evaluations", ("optimizers.minimize", "evaluations")),
    ("optimizers.iterations", ("optimizers.minimize", "iterations")),
    ("optimizers.s_per_evaluation",
     _ratio(("optimizers.minimize", "s"), ("optimizers.minimize", "evaluations"))),
    ("solvers.filters.eval_filter.s", ("solvers.filters.eval_filter", "s")),
    ("solvers.qsvt.degree",
     _ratio(("solvers.solve_qsvt", "degree"), ("solvers.solve_qsvt", "qsvt"))),
    ("simulator.post_select.s", ("simulator.post_select", "s")),
    ("simulator.sample.s", ("simulator.sample", "s")),
    ("solvers.shots_used", _sum(*((name, "shots_used") for name in _SOLVERS))),
    ("cnf.parse_dimacs.s", ("cnf.parse_dimacs", "s")),
    ("cnf.parse_dimacs.bytes", ("cnf.parse_dimacs", "bytes")),
    ("synthetic.generate_synthetic.s", ("synthetic.generate_synthetic", "s")),
    ("checker.run_model_checker.s", ("checker.run_model_checker", "s")),
    ("checker.run_model_checker.calls", ("checker.run_model_checker", "calls")),
    ("cnf.evaluate.calls", ("cnf.evaluate", "calls")),
    ("cnf.evaluate.hit_ratio", _ratio(("cnf.evaluate", "hits"), ("cnf.evaluate", "calls"))),
    ("solvers.first_verified.s", ("solvers.first_verified", "s")),
    ("pipeline.build_problem.s", ("pipeline.build_problem", "s")),
    ("pipeline.solve.s", ("pipeline.solve", "s")),
    ("pipeline.report.s", ("pipeline.report", "s")),
]

# Ratios and peaks are not divided by the number of traced rounds.
_PER_RUN = {"reduction.table_bytes.peak", "optimizers.s_per_evaluation", "solvers.qsvt.degree",
            "cnf.evaluate.hit_ratio"}


def layer_metrics(agg: dict, rounds: int) -> dict:
    """Per-layer metric values per traced round, keyed by metric name."""
    out = {}
    for name, source in LAYER_METRICS:
        value = source(agg) if callable(source) else _get(agg, *source)
        out[name] = value if name in _PER_RUN else value / rounds
    return out
