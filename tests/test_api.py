"""Public API surface tests: exports, docstrings, __all__ hygiene."""

import ast
import importlib
import inspect
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cli
from repro.core.gossip import GossipConfig, resolve_auto_threshold, run_inform_stage
from repro.core.tempered import TemperedConfig
from repro.core.transfer import TransferConfig, transfer_stage
from repro.empire.app import EmpireConfig
from repro.sim.faults import FaultConfig

PUBLIC_MODULES = [
    "repro",
    "repro.cli",
    "repro.core",
    "repro.core.base",
    "repro.core.cmf",
    "repro.core.comm",
    "repro.core.criteria",
    "repro.core.distribution",
    "repro.core.gossip",
    "repro.core.grapevine",
    "repro.core.greedy",
    "repro.core.hier",
    "repro.core.knowledge",
    "repro.core.metrics",
    "repro.core.ordering",
    "repro.core.refinement",
    "repro.core.registry",
    "repro.core.tempered",
    "repro.core.transfer",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.messages",
    "repro.sim.network",
    "repro.sim.process",
    "repro.sim.reductions",
    "repro.sim.rng",
    "repro.sim.termination",
    "repro.sim.trace",
    "repro.runtime",
    "repro.runtime.amt",
    "repro.runtime.lbmanager",
    "repro.runtime.migration",
    "repro.runtime.phase",
    "repro.empire",
    "repro.empire.app",
    "repro.empire.bdot",
    "repro.empire.electrostatic",
    "repro.empire.fields",
    "repro.empire.mesh",
    "repro.empire.particles",
    "repro.empire.pic",
    "repro.empire.repartition",
    "repro.empire.workload",
    "repro.workloads",
    "repro.workloads.synthetic",
    "repro.workloads.timevarying",
    "repro.analysis",
    "repro.analysis.experiment",
    "repro.analysis.io",
    "repro.analysis.plot",
    "repro.analysis.report",
    "repro.analysis.runner",
    "repro.analysis.series",
    "repro.analysis.tables",
    "repro.util",
    "repro.util.validation",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_importable_with_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", [m for m in PUBLIC_MODULES if "." in m])
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_top_level_exports():
    import repro

    for symbol in repro.__all__:
        assert hasattr(repro, symbol)
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_public_callables_documented(name):
    """Every public class and function carries a docstring."""
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__.startswith("repro"):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_src_imports_only_declared_dependencies():
    """A third-party import in ``src/`` is a runtime dependency, so
    ``pyproject.toml`` declares it: the documented install then imports
    every module. A regex reads the file, since ``tomllib`` is 3.11+."""
    root = Path(repro.__file__).parent
    pyproject = (root.parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)^\[", pyproject, re.M | re.S)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S).group(1)
    declared = {name.lower().replace("-", "_") for name in re.findall(r"[\"']([A-Za-z0-9_.-]+)", deps)}
    undeclared = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in {m.split(".")[0] for m in modules} - set(sys.stdlib_module_names) - {"repro"}:
                if top.lower() not in declared:
                    undeclared.add(f"{top} in {path.relative_to(root).as_posix()}")
    assert not undeclared, f"undeclared imports: {sorted(undeclared)}; declared {sorted(declared)}"


def test_strategies_share_the_interface():
    from repro import GrapevineLB, GreedyLB, HierLB, LoadBalancer, TemperedLB

    for cls in (GrapevineLB, GreedyLB, HierLB, TemperedLB):
        assert issubclass(cls, LoadBalancer)
        assert cls.name != LoadBalancer.name


# -- surface ratchet -----------------------------------------------------------

RATCHET = "this bound is lowered by deletions and never raised"


def test_config_and_cli_surface_only_shrinks():
    for config, bound in (
        (GossipConfig, 9),
        (TransferConfig, 9),
        (TemperedConfig, 5),
        (EmpireConfig, 11),
        (FaultConfig, 14),
    ):
        names = [f.name for f in fields(config)]
        assert len(names) <= bound, f"{config.__name__} has {len(names)} fields {names}; {RATCHET}"
    flags = len(re.findall(r"\.add_argument\(", Path(repro.cli.__file__).read_text()))
    assert flags <= 62, f"cli.py has {flags} add_argument calls; {RATCHET}"


def test_src_lines_only_shrink():
    src = Path(repro.__file__).parent
    lines = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    assert lines <= 14_260, f"src/repro has {lines} lines; {RATCHET}"


def test_gossip_is_algorithm_one_and_nothing_else():
    """``core/gossip.py`` holds the listing; how ``S^p`` is laid out is
    ``core/knowledge.py``'s, so no bit or shard detail appears in it."""
    text = (Path(repro.__file__).parent / "core" / "gossip.py").read_text()
    lines = len(text.splitlines())
    assert lines <= 750, f"core/gossip.py has {lines} lines; {RATCHET}"
    knowledge = len((Path(repro.__file__).parent / "core" / "knowledge.py").read_text().splitlines())
    assert knowledge <= 986, f"core/knowledge.py has {knowledge} lines; {RATCHET}"
    layout = r"packbits|unpackbits|bitwise_count|_ID_DTYPE|\.packed\b|\.shards\b"
    found = [line for line in text.splitlines() if re.search(layout, line)]
    assert found == [], f"storage layout in core/gossip.py: {found}"


def test_algorithm3_loop_and_barrier_step_are_written_once():
    """One trial loop builds every iteration row, and only ``NodeCore``'s
    own module touches its private state: a second copy of either loop
    would show here."""
    src = Path(repro.__file__).parent
    texts = {p.relative_to(src).as_posix(): p.read_text() for p in src.rglob("*.py")}
    sites = [name for name, text in texts.items() for _ in re.finditer(r"IterationRecord\(", text)]
    assert sites == ["core/refinement.py"], f"IterationRecord( built in {sites}"
    readers = sorted(n for n, t in texts.items() if "._underloaded" in t and n != "net/episode.py")
    assert readers == [], f"NodeCore._underloaded read in {readers}"


# -- reachability: a module stays only if something outside tests/ reaches it --


def test_every_module_is_reached_outside_tests():
    """Each ``src/repro`` module, or a name in its ``__all__``, is named by
    another module (package ``__init__`` files do not count), a
    benchmark or an example."""
    src = Path(repro.__file__).parent
    root = src.parents[1]
    corpus = {p: p.read_text() for p in src.rglob("*.py") if p.name != "__init__.py"}
    for folder in ("benchmarks", "examples"):
        corpus.update({p: p.read_text() for p in (root / folder).rglob("*.py")})
    orphans = []
    for path in sorted(src.rglob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        dotted = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        names = [dotted, *getattr(importlib.import_module(dotted), "__all__", [])]
        named = re.compile(r"\b(?:" + "|".join(map(re.escape, names)) + r")\b")
        if not any(named.search(text) for p, text in corpus.items() if p != path):
            orphans.append(dotted)
    assert orphans == [], f"reached only from tests/: {orphans}"


# -- config routing: a flat knob goes to the one config that declares it ------


def test_stage_field_names_are_disjoint():
    """Routing by name is unambiguous only if no name has two owners."""
    owners = [{f.name for f in fields(c)} for c in (GossipConfig, TransferConfig, TemperedConfig)]
    for i, a in enumerate(owners):
        for b in owners[i + 1 :]:
            assert not a & b, f"shared field names {sorted(a & b)}"


def test_flat_knobs_apply_on_top_of_passed_stages():
    config = TemperedConfig(gossip=GossipConfig(fanout=2, rounds=3), rounds=5, ordering="lightest")
    assert config.gossip == GossipConfig(fanout=2, rounds=5)
    assert config.transfer == TransferConfig(ordering="lightest")
    # Without transfer=, the default stage is TemperedLB's (Fewest Migrations).
    assert TemperedConfig(nacks=True).transfer == TransferConfig(
        ordering="fewest_migrations", nacks=True
    )


@pytest.mark.parametrize("config", [TemperedConfig, EmpireConfig])
def test_misspelt_knob_is_a_type_error(config):
    with pytest.raises(TypeError, match="max_knwon"):
        config(max_knwon=4)


def test_numba_leg_is_gone():
    src = Path(repro.__file__).parent
    shim = src / "core" / "_kernels.py"
    mentions = [p for p in src.rglob("*.py") if p != shim and "numba" in p.read_text()]
    assert mentions == [], f"'numba' outside the shim: {mentions}"
    shim_text = shim.read_text()
    assert len(shim_text.splitlines()) <= 15
    assert "import numba" not in shim_text and "from numba" not in shim_text
    # Retired, not remapped: the selectors are unknown keywords.
    for config, knob in (
        (GossipConfig, "kernel"),
        (TransferConfig, "kernel"),
        (TemperedConfig, "gossip_kernel"),
        (TemperedConfig, "transfer_kernel"),
    ):
        with pytest.raises(TypeError):
            config(**{knob: "numba"})
    # What benchmarks/e2e/wl_phase.py still evaluates keeps its value.
    assert resolve_auto_threshold(GossipConfig().kernel) == 8_192


# -- config walk: every combination is a clean ValueError or a clean run -------


def _build(factory, kwargs):
    """The config, or None when construction rejects the combination."""
    try:
        return factory(**kwargs)
    except ValueError:
        return None


_FAULTS = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "loss_rate": st.sampled_from([0.0, 0.2, 1.0]),
            "delay_rate": st.sampled_from([0.0, 0.3]),
            "delay_scale": st.sampled_from([1.0, 2.5]),
            "duplicate_rate": st.sampled_from([0.0, 0.25]),
            "retransmit": st.booleans(),
            "retry_rounds": st.sampled_from([1, 2]),
            "seed": st.integers(0, 3),
        }
    ),
)
_GOSSIP = st.fixed_dictionaries(
    {
        "fanout": st.sampled_from([1, 2, 6]),
        "rounds": st.sampled_from([1, 3, 10]),
        "avoid_known": st.booleans(),
        "max_known": st.sampled_from([None, 1, 4, 64]),
        "trim_policy": st.sampled_from(["random", "lowest"]),
        "ranks_per_node": st.sampled_from([1, 4]),
        "intra_node_bias": st.sampled_from([0.0, 0.5, 1.0]),
        "knowledge": st.sampled_from(["auto", "packed", "sparse"]),
    }
)
_TRANSFER = st.fixed_dictionaries(
    {
        "criterion": st.sampled_from(["original", "relaxed"]),
        "cmf": st.sampled_from(["original", "modified"]),
        "recompute_cmf": st.booleans(),
        "ordering": st.sampled_from(
            ["arbitrary", "load_intensive", "fewest_migrations", "lightest"]
        ),
        "threshold": st.sampled_from([1.0, 0.7, 1.3]),
        "view": st.sampled_from(["snapshot", "shared"]),
        "max_passes": st.sampled_from([None, 1, 3]),
        "cascade": st.booleans(),
        "nacks": st.booleans(),
    }
)
#: One out-of-range value to plant (or none): the dictionaries above hold
#: valid values only, so what else gets rejected is a *combination*
#: (sparse x bias, bias x one rank per node).
_POISON = st.sampled_from(
    [
        None,
        ("gossip", "fanout", 0),
        ("gossip", "fanout", 2.5),
        ("gossip", "max_known", 0),
        ("gossip", "max_known", 2.0),
        ("gossip", "trim_policy", "newest"),
        ("gossip", "intra_node_bias", 1.5),
        ("transfer", "threshold", 0.0),
        ("transfer", "ordering", "heaviest"),
        ("transfer", "max_passes", 1.5),
        ("faults", "loss_rate", 1.5),
        ("faults", "delay_scale", 0.0),
    ]
)


@given(
    gossip=_GOSSIP,
    transfer=_TRANSFER,
    faults=_FAULTS,
    poison=_POISON,
    n_ranks=st.integers(2, 32),
    n_tasks=st.integers(1, 120),
    seed=st.integers(0, 1_000),
)
@settings(max_examples=200, deadline=None)
def test_config_walk_rejects_or_runs_deterministically(
    gossip, transfer, faults, poison, n_ranks, n_tasks, seed
):
    planted = None
    if poison is not None:
        target = {"gossip": gossip, "transfer": transfer, "faults": faults}[poison[0]]
        if target is not None:
            target[poison[1]] = poison[2]
            planted = poison[0]
    fault_cfg = None if faults is None else _build(FaultConfig, faults)
    gossip_cfg = _build(GossipConfig, {**gossip, "faults": fault_cfg})
    transfer_cfg = _build(TransferConfig, transfer)
    if planted is not None:
        built = {"gossip": gossip_cfg, "transfer": transfer_cfg, "faults": fault_cfg}
        assert built[planted] is None, f"{poison} was accepted"

    # The flat form routes each knob to the stage declaring it: the same
    # config as the nested form, or the same ValueError.
    flat = {**gossip, "faults": fault_cfg, **transfer}
    nested = None
    if gossip_cfg is not None and transfer_cfg is not None:
        nested = TemperedConfig(gossip=gossip_cfg, transfer=transfer_cfg)
    assert _build(TemperedConfig, flat) == nested
    loop = {"n_trials": 2, "n_iters": 3}
    lb = _build(TemperedConfig, {**flat, **loop})
    empire = None if lb is None else EmpireConfig(lb=lb)
    assert _build(EmpireConfig, {**flat, **loop}) == empire

    if faults is not None and fault_cfg is None:
        return
    if gossip_cfg is None or transfer_cfg is None:
        return

    rng = np.random.default_rng(seed)
    task_loads = rng.gamma(2.0, 0.5, size=n_tasks)
    assignment = rng.integers(0, max(1, n_ranks // 4), size=n_tasks)
    loads = np.bincount(assignment, weights=task_loads, minlength=n_ranks)

    def episode():
        stream = np.random.default_rng(seed + 1)
        inform = run_inform_stage(loads, gossip_cfg, stream)
        moved = assignment.copy()
        stats = transfer_stage(moved, task_loads, inform, transfer_cfg, stream)
        return inform, moved, stats, stream.bit_generator.state

    inform, moved, stats, state = episode()
    assert moved.shape == assignment.shape
    assert moved.min() >= 0 and moved.max() < n_ranks
    after = np.bincount(moved, weights=task_loads, minlength=n_ranks)
    assert after.sum() == pytest.approx(task_loads.sum(), rel=1e-12)
    again = episode()
    np.testing.assert_array_equal(again[0].knowledge.rows, inform.knowledge.rows)
    assert again[0].per_round_messages == inform.per_round_messages
    np.testing.assert_array_equal(again[1], moved)
    assert again[2] == stats
    assert again[3] == state
