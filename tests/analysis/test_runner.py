"""Unit tests for repro.analysis.runner (declarative sweeps)."""

import pytest

from repro.analysis.runner import SweepSpec, run_sweep


def small_spec(**kw):
    defaults = dict(
        workloads={
            "concentrated": {
                "generator": "paper",
                "n_tasks": 200,
                "n_loaded_ranks": 2,
                "n_ranks": 16,
            }
        },
        strategies={
            "greedy": {"kind": "greedy"},
            "tempered": {"kind": "tempered", "n_trials": 1, "n_iters": 2},
        },
        seeds=(0, 1),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSpecValidation:
    def test_requires_workloads_and_strategies(self):
        with pytest.raises(ValueError, match="workload"):
            SweepSpec(workloads={}, strategies={"g": {"kind": "greedy"}})
        with pytest.raises(ValueError, match="strategy"):
            SweepSpec(workloads={"w": {"generator": "random"}}, strategies={})
        with pytest.raises(ValueError, match="seed"):
            small_spec(seeds=())

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            SweepSpec(
                workloads={"w": {"generator": "cosmic"}},
                strategies={"g": {"kind": "greedy"}},
            )

    def test_strategy_needs_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SweepSpec(
                workloads={"w": {"generator": "random", "n_tasks": 10, "n_ranks": 2}},
                strategies={"g": {"n_trials": 2}},
            )

    @pytest.mark.parametrize("kind", ["refine", "quantum"])
    def test_unknown_kind(self, kind):
        """A strategy the registry does not hold fails when the spec is
        built, before any cell runs."""
        with pytest.raises(ValueError, match=f"unknown kind '{kind}'"):
            small_spec(strategies={"g": {"kind": "greedy"}, "x": {"kind": kind}})

    def test_roundtrip_dict(self):
        spec = small_spec()
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_from_dict_refuses_unknown_keys(self):
        payload = small_spec().to_dict()
        payload["seed"] = payload.pop("seeds")
        with pytest.raises(ValueError, match="'seed'"):
            SweepSpec.from_dict(payload)

    def test_from_dict_seeds_default(self):
        payload = small_spec().to_dict()
        del payload["seeds"]
        assert SweepSpec.from_dict(payload).seeds == (0, 1, 2)


class TestRunSweep:
    def test_one_row_per_cell(self):
        rows = run_sweep(small_spec())
        assert len(rows) == 2
        assert {r["strategy"] for r in rows} == {"greedy", "tempered"}

    def test_aggregation_over_seeds(self):
        rows = run_sweep(small_spec())
        for row in rows:
            assert len(row["raw"]["final"]) == 2
            assert row["final I"] == pytest.approx(
                sum(row["raw"]["final"]) / 2
            )
            assert row["final I std"] >= 0

    def test_strategies_actually_differ(self):
        rows = run_sweep(small_spec())
        by = {r["strategy"]: r for r in rows}
        assert by["greedy"]["final I"] <= by["tempered"]["final I"] + 1e-9

    def test_all_improve(self):
        rows = run_sweep(small_spec())
        for row in rows:
            assert row["final I"] < row["initial I"]

    def test_multiple_workloads(self):
        spec = small_spec(
            workloads={
                "a": {"generator": "random", "n_tasks": 100, "n_ranks": 8},
                "b": {"generator": "skewed", "n_tasks": 100, "n_ranks": 8, "skew": 1.0},
            }
        )
        rows = run_sweep(spec)
        assert len(rows) == 4
