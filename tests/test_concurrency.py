"""Thread-safety regressions for module-level shared state.

The ``thread`` execution backend runs trials concurrently *inside one
process*, so the forest-plan LRU and the estimator/backend registries
are shared state.  Each test hammers one of those seams from many
threads and asserts the invariant the lock exists to protect; before
the locks landed these produced drifting byte counters (plan LRU) and
lost registrations (registry check-then-set races).

Races are probabilistic: these tests cannot prove absence, but they
fail loudly (and did, pre-lock) when the guarded sections regress.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import registry
from repro.core import engine as engine_module
from repro.core.engine import (
    InferenceEngine,
    infer_many,
    invalidate_forest_plans,
    set_forest_plan_budget,
)
from repro.runner.backends import (
    SerialBackend,
    available_backends,
    register_backend,
    unregister_backend,
)

WORKERS = 8


def run_concurrently(tasks):
    """Run thunks in a pool; re-raise the first worker exception."""
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = [pool.submit(task) for task in tasks]
        for future in futures:
            future.result()


class TestRegistryRaces:
    def test_estimator_registry_register_unregister_cycles(self):
        names = [f"_race_est_{i}" for i in range(WORKERS)]
        barrier = threading.Barrier(WORKERS)

        def cycle(name):
            barrier.wait()
            for _ in range(200):
                registry.register(name, object)
                assert name in registry.available()
                registry.unregister(name)

        try:
            run_concurrently([lambda n=n: cycle(n) for n in names])
        finally:
            for name in names:
                registry.unregister(name)
        assert not set(names) & set(registry.available())

    def test_backend_registry_register_unregister_cycles(self):
        names = [f"_race_backend_{i}" for i in range(WORKERS)]
        builtin = set(available_backends())
        barrier = threading.Barrier(WORKERS)

        def cycle(name):
            barrier.wait()
            for _ in range(200):
                register_backend(name, SerialBackend)
                assert name in available_backends()
                unregister_backend(name)

        try:
            run_concurrently([lambda n=n: cycle(n) for n in names])
        finally:
            for name in names:
                unregister_backend(name)
        assert set(available_backends()) == builtin

    def test_duplicate_registration_still_raises_under_contention(self):
        name = "_race_dup"
        registry.register(name, object)
        errors = []
        barrier = threading.Barrier(WORKERS)

        def reregister():
            barrier.wait()
            try:
                registry.register(name, object)
            except ValueError as error:
                errors.append(error)

        try:
            run_concurrently([reregister] * WORKERS)
        finally:
            registry.unregister(name)
        assert len(errors) == WORKERS


class TestForestPlanRaces:
    @pytest.fixture(scope="class")
    def forest_runs(self):
        """Three small trees — enough for the packed plan cache."""
        from repro import (
            ProberConfig,
            ProbingSimulator,
            RoutingMatrix,
            build_paths,
            random_tree,
        )

        runs = []
        for i in range(3):
            topo = random_tree(num_nodes=14 + 2 * i, seed=900 + i)
            paths = build_paths(topo.network, topo.beacons, topo.destinations)
            routing = RoutingMatrix.from_paths(paths)
            simulator = ProbingSimulator(
                paths,
                topo.network.num_links,
                config=ProberConfig(
                    probes_per_snapshot=120,
                    congestion_probability=0.15,
                ),
            )
            campaign = simulator.run_campaign(4, routing, seed=950 + i)
            training, target = campaign.split_training_target()
            engine = InferenceEngine(routing)
            runs.append((engine, target, engine.learn_variances(training)))
        return runs

    def test_infer_many_races_invalidation_without_corruption(self, forest_runs):
        """Packed inference stays byte-identical while other threads
        clear the plan LRU and flip its byte budget, and the LRU's byte
        counter matches its contents afterwards."""
        reference = [r.transmission_rates for r in infer_many(forest_runs, mode="loop")]
        barrier = threading.Barrier(WORKERS)

        def infer():
            barrier.wait()
            for _ in range(15):
                results = infer_many(forest_runs, mode="packed")
                for got, expected in zip(results, reference):
                    assert np.array_equal(got.transmission_rates, expected)

        def churn():
            barrier.wait()
            for step in range(60):
                invalidate_forest_plans()
                set_forest_plan_budget(1 if step % 2 else None)

        try:
            run_concurrently([infer] * (WORKERS - 2) + [churn] * 2)
        finally:
            set_forest_plan_budget(None)
            invalidate_forest_plans()

    def test_plan_byte_counter_matches_cache_contents(self, forest_runs):
        barrier = threading.Barrier(WORKERS)

        def infer():
            barrier.wait()
            for _ in range(10):
                infer_many(forest_runs, mode="packed")
                invalidate_forest_plans()

        try:
            run_concurrently([infer] * WORKERS)
        finally:
            set_forest_plan_budget(None)
        with engine_module._FOREST_PLAN_LOCK:
            expected = sum(
                plan.nbytes for plan in engine_module._forest_plans.values()
            )
            assert engine_module._forest_plan_bytes == expected
        invalidate_forest_plans()
