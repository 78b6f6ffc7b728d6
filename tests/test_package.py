import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
import threading
from pathlib import Path

import ucnprec as u
from ucnprec import baselines, harness, helper, symplectic
from ucnprec.channel import ClusterMap, RsrpTable
from ucnprec.embedding import PowerBudget
from ucnprec.harness import ScenarioConfig
from ucnprec.objective import Weights, WsrObjective
from ucnprec.symplectic import SolveResult, SolverConfig
from conftest import run_python, table1_shaped_instance, watch_split_loops

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"

# The package exports exactly the names that the README's library example binds
# from it (test_exports_are_bound_by_readme_example checks that rule); any other
# caller imports a name from the submodule that defines it.
EXPORTS = ["WsrObjective", "rzf_init", "solve"]


# Adding a config key means adding its name here: every field is a value that a
# shipped preset or a benchmark batch sets; the rest of the model is fixed. The
# solver settings are the one field `solver`, a SolverConfig.
CONFIG_FIELDS = [
    "B_sc", "K", "M_t", "deployment_radius_m", "gnb_count", "sectors_per_gnb", "seeds", "solver",
    "tx_power_dbm",
]

# Adding a solver knob means adding its name here, as for CONFIG_FIELDS: the
# GD/NAGD line search and momentum and the smallest RATTLE step are module
# constants of baselines and symplectic.
SOLVER_FIELDS = [
    "gamma", "h0", "h_max", "max_iters", "project_positions", "r_ctrl", "rel_tol", "theta",
]

# Every iterative solver is called as solver(init, objective, rho, config) -> SolveResult,
# so the harness calls each the same way and the benchmark's tracer wraps each by name.
SOLVERS = {
    symplectic: ["solve"],
    baselines: ["wmmse_iterate", "gd_solve", "nagd_solve"],
}
SOLVER_PARAMS = ["init", "objective", "rho", "config"]

# Each scenario fact is stored once: ClusterMap derives served_ut (U_l) from the
# serving sets B_k, and RsrpTable derives the gap delta from the RSRP values. A second
# stored view would need a check that the two agree.
STORED_FIELDS = {ClusterMap: ["serving_bs", "n_bs"], RsrpTable: ["values"]}

MAX_LINE = 100  # characters per line of package source
MAX_PARAMS = 6  # parameters of a package function: _armijo's count


def readme_library_example():
    text = README.read_text()
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_exports_are_pinned():
    assert sorted(u.__all__) == EXPORTS
    assert all(hasattr(u, name) for name in EXPORTS)


def test_exports_are_bound_by_readme_example():
    code = readme_library_example()
    bound = set(re.findall(r"\bu\.(\w+)", code))
    bound |= {
        name.strip()
        for names in re.findall(r"^from ucnprec import (.+)$", code, re.M)
        for name in names.split(",")
    }
    assert set(u.__all__) == bound


def test_config_fields_are_pinned():
    assert sorted(f.name for f in dataclasses.fields(ScenarioConfig)) == CONFIG_FIELDS


def test_solver_fields_are_pinned():
    assert sorted(f.name for f in dataclasses.fields(SolverConfig)) == SOLVER_FIELDS


def test_solvers_share_one_signature():
    for module, names in SOLVERS.items():
        for name in names:
            sig = inspect.signature(getattr(module, name))
            assert list(sig.parameters) == SOLVER_PARAMS, name
            assert sig.return_annotation is SolveResult, name


def test_wmmse_step_has_one_call_shape():
    # one sweep takes a WmmseState to the next; no mode of it is an optional argument
    sig = inspect.signature(baselines.wmmse_step)
    assert list(sig.parameters) == ["x", "rho", "objective"]
    assert all(p.default is inspect.Parameter.empty for p in sig.parameters.values())
    fields = [f.name for f in dataclasses.fields(baselines.WmmseState)]
    assert fields == ["p", "products", "lam", "power_evals"]


def test_gradient_solvers_share_one_state_protocol():
    # RATTLE, GD and NAGD are each a frozen state plus a step(x) -> (x_next, record),
    # which iterate() drives; the step size lives in the RATTLE state
    params = {
        symplectic.rattle_step: ["x", "config", "rho", "objective"],
        symplectic.iterate: ["x", "step", "max_iters", "rel_tol"],
    }
    for fn, names in params.items():
        sig = inspect.signature(fn)
        assert list(sig.parameters) == names, fn.__name__
        assert all(p.default is inspect.Parameter.empty for p in sig.parameters.values())
    fields = {
        symplectic.RattleState: ["p", "q", "h", "ev", "qq", "pg", "n"],
        baselines.DescentState: ["p", "wsr", "ev", "y", "start"],
    }
    for cls, names in fields.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
        assert cls.__dataclass_params__.frozen and "__slots__" in vars(cls), cls.__name__


def test_no_solver_keeps_state_in_a_closure():
    # a solver's state is a value handed from step to step, never a cell a closure rebinds
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((REPO / "src" / "ucnprec").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Nonlocal)
    ]
    assert found == []


def write_opens(node, owner):
    """Yield the enclosing function's name for each open() call under node with a write mode."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from write_opens(child, child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "open":
            modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
            # a mode that is no literal could be anything, so it counts as writing
            if any(not isinstance(m, ast.Constant) or set(m.value) - set("rbt") for m in modes):
                yield owner
        yield from write_opens(child, owner)


def test_only_write_csv_opens_a_file_for_writing():
    # every file the package writes goes through one writer: whole, via path.tmp and os.replace
    found = [
        f"{path.stem}.{owner}"
        for path in sorted((REPO / "src" / "ucnprec").glob("*.py"))
        for owner in write_opens(ast.parse(path.read_text()), "<module>")
    ]
    assert found == ["symplectic.write_csv"]


def test_solver_settings_are_declared_once():
    # ScenarioConfig holds the solver settings only through its one SolverConfig
    assert not set(CONFIG_FIELDS) & set(SOLVER_FIELDS)
    # a config file sets every field but `solver`, and every solver field but two
    keys = set(CONFIG_FIELDS + SOLVER_FIELDS) - {"solver", "theta", "project_positions"}
    assert sorted(harness._FIELD_PARSERS) == sorted(keys)
    assert ScenarioConfig().solver == SolverConfig()


def test_readme_key_table_matches_the_configs():
    # every `key = value` cell of the key table is a config-file key at its default
    text = README.read_text()
    table = text[text.index("| group | keys |") :].split("\n\n", 1)[0]
    cells = dict(re.findall(r"`(\w+) = ([^`]+)`", table))
    assert sorted(cells) == sorted(harness._FIELD_PARSERS)
    scenario = ScenarioConfig()
    for key, value in cells.items():
        owner = scenario.solver if key in SOLVER_FIELDS else scenario
        assert harness._FIELD_PARSERS[key](value) == getattr(owner, key), key


def test_scenario_facts_are_stored_once():
    for cls, names in STORED_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names


def test_readme_states_the_helper_gate():
    text = README.read_text()
    assert [int(n) for n in re.findall(r"M_t ≥ (\d+)", text)] == [helper.MIN_MT]
    millions = re.findall(r"(\d+)M complex multiply-adds", text)
    assert [int(n) * 1_000_000 for n in millions] == [helper.SPLIT_MIN_MACS]


def test_source_lines_fit_the_line_limit():
    long = [
        f"{path.name}:{n}"
        for path in sorted((REPO / "src" / "ucnprec").glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []


def test_functions_take_at_most_max_params():
    wide = []
    for path in sorted((REPO / "src" / "ucnprec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                named = args.posonlyargs + args.args + args.kwonlyargs
                if len(named) + (args.vararg is not None) + (args.kwarg is not None) > MAX_PARAMS:
                    wide.append(f"{path.name}:{node.lineno}")
    assert wide == []


def test_readme_library_example_runs(capsys):
    exec(compile(readme_library_example(), str(README), "exec"), {})
    converged, iterations, wsr_bits = capsys.readouterr().out.split()
    assert converged == "True"
    assert int(iterations) > 0
    assert float(wsr_bits) > 0.0


def test_import_loads_no_heavy_module_and_starts_no_thread():
    # import-time RSS: scipy alone adds about 27 MB. The helper thread, concurrent.futures
    # and the BLAS thread-count query are loaded by the first call at M_t >= 48, and a
    # desk-scale run stays single-threaded. numpy imports ctypes itself, so the query's
    # ctypes use shows as the looked-up function, not in sys.modules.
    script = (
        "import dataclasses, sys, tempfile, threading\n"
        "from ucnprec import helper\n"
        "from ucnprec.harness import load_config, run_experiment\n"
        "def report():\n"
        "    loaded = [m for m in ('scipy', 'concurrent.futures') if m in sys.modules]\n"
        "    print(loaded, helper._blas_threads_fn is None, threading.active_count())\n"
        "report()\n"
        "cfg = dataclasses.replace(load_config('configs/desk.cfg'), seeds=(0,))\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    run_experiment(cfg, ['symplectic', 'wmmse', 'rzf', 'gd', 'nagd'], out)\n"
        "report()\n"
    )
    assert run_python(script).splitlines() == ["[] True 1", "[] True 1"]


def test_full_scale_work_starts_one_helper_thread():
    # the objective's GEMM split, WMMSE's eigh hand-off and the RATTLE step's row split
    # share one helper
    script = (
        "import threading\n"
        "from ucnprec import helper\n"
        "from ucnprec.baselines import WmmseState, wmmse_step\n"
        "from ucnprec.embedding import PowerBudget, PrecoderState, renormalize_power\n"
        "from ucnprec.objective import Weights, WsrObjective\n"
        "from ucnprec.symplectic import RattleState, SolverConfig, rattle_step\n"
        "import conftest\n"
        "helper._cpus = lambda: 2\n"
        "ch, clusters, state = conftest.table1_shaped_instance()\n"
        "w = Weights.uniform(ch.n_ut)\n"
        "rho = PowerBudget.uniform(ch.n_bs, 1.0)\n"
        "objective = WsrObjective(ch, w)\n"
        "objective.evaluate(state)\n"
        "wmmse_step(WmmseState.start(state, ch), rho, objective)\n"
        "p = renormalize_power(state, rho)\n"
        "config = SolverConfig()\n"
        "x = RattleState.start(p, PrecoderState.zeros(p.layout), config.h0, objective)\n"
        "rattle_step(x, config, rho, objective)\n"
        "print(sorted(t.name for t in threading.enumerate()))\n"
    )
    threads = run_python(script, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert threads.splitlines() == ["['MainThread', 'ucnprec-helper_0']"]


def public_callables(module):
    """(owner, attribute, function) for the public functions and public-class methods a module defines.

    Methods include __init__, which perfbench's tracer wraps on PrecoderState.
    """
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield obj, attr, member


def test_public_callables_run_only_on_the_main_thread(monkeypatch, open_helper_gate):
    # perfbench's tracer keeps one span stack for all threads, so a public callable that
    # the helper ran would corrupt it; the helper must run only its callers' closures
    modules = [u] + [
        importlib.import_module(f"ucnprec.{m.name}")
        for m in pkgutil.iter_modules(u.__path__) if m.name != "__main__"
    ]
    calls = []

    def recorder(fn, name):
        @functools.wraps(fn)
        def record(*args, **kwargs):
            calls.append((name, threading.current_thread().name))
            return fn(*args, **kwargs)

        return record

    for module in modules[1:]:
        for owner, attr, member in list(public_callables(module)):
            qualifier = f".{owner.__name__}" if inspect.isclass(owner) else ""
            name = f"{module.__name__}{qualifier}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(recorder(member.__func__, name))
            else:
                wrapped = recorder(member, name)
            if inspect.isclass(owner):
                monkeypatch.setattr(owner, attr, wrapped)
                continue
            for holder in modules:  # functions imported by name into other modules too
                for key, value in list(vars(holder).items()):
                    if value is member:
                        monkeypatch.setattr(holder, key, wrapped)
    loop_threads = watch_split_loops("rattle_step", monkeypatch.setattr)

    ch, _, state = table1_shaped_instance()
    rho = PowerBudget.uniform(ch.n_bs, 1.0)
    config = SolverConfig(gamma=1.0, h0=0.01, r_ctrl=1e-2, h_max=1.0, max_iters=3, rel_tol=1e-300)
    objective = WsrObjective(ch, Weights.uniform(ch.n_ut))
    result = symplectic.solve(state, objective, rho, config)
    assert result.iterations == 3
    assert loop_threads == {"MainThread", "ucnprec-helper_0"}
    names = {name for name, _ in calls}
    assert {"ucnprec.symplectic.rattle_step", "ucnprec.helper.split_bs_loop"} <= names
    assert "ucnprec.embedding.PrecoderState.__init__" in names
    assert {thread for _, thread in calls} == {"MainThread"}
