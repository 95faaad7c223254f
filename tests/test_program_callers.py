"""Every function in `src/qverify` has a caller in the program, or a stated
reason to stay; what only tests call lives in `tests/reference.py`.

A static scan: a top-level function or a non-dunder method is called when
some module of the package other than an `__init__.py` names it, as a name,
an attribute or an import.  Names are matched without their owner, so a
function that shares its name with a called one counts as called.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qverify"

KEPT = {
    "cnf.emit_dimacs": "north star: DIMACS out, the parser's inverse",
    "reduction.Qubo.to_json_dict": "north star: the QUBO's JSON form",
    "solvers.qsvt.build_block_encoding": "north star: QSVT's block encoding",
    "solvers.qsvt.BlockEncoding.unitary": "north star: the block encoding's matrix",
    "solvers.vqa.qaoa_energy_gradient": "north star: QAOA's exact gradient",
    "solvers.vqa.vqe_energy_gradient": "north star: VQE's exact gradient",
    "pipeline.Problem.ising": "north star: the Ising form of a built problem",
    "reduction.Qubo.objective": "acceptance criteria score assignments with it",
    "reduction.IsingModel.energy_of_assignment": "acceptance criteria check the Ising energy",
    "reduction.extend_assignment": "acceptance criteria extend witnesses with it",
    "solvers.report.SolverReport.witness_string": "acceptance criteria read witnesses",
    "reduction.IsingModel.energy_table": "perfbench/spans.py wraps it",
    "oracle.SpectrumSummary.satisfying_set": "test assertions read this view",
    "cnf.Clause.is_satisfied_by": "test assertions read this view",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uncalled() -> set[str]:
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        defined[f"{module}.{node.name}.{item.name}"] = item.name
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return {qualified for qualified, name in defined.items() if name not in referenced}


def test_every_function_has_a_program_caller_or_a_reason():
    assert _uncalled() == set(KEPT)
