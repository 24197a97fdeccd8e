"""Every name the benchmark's tracer touches must still exist where it looks.

bench/spans.py times beamsel's layers by replacing ``owner.__dict__[attr]``
with a wrapper. A renamed or moved function would make ``bench/run.py
--trace 1`` fail with a KeyError, so the names are checked here. The tracer
also swaps ``harness.ProcessPoolExecutor`` for a timed subclass and reads a
built codebook's ``.m`` and ``.n_vec``, so those are checked too, and one
traced run exercises them all.
"""

import importlib.util
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from beamsel import codebook, harness
from beamsel.core import SystemConfig
from beamsel.harness import ExperimentConfig

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
LAYERS = spans.LAYERS


@pytest.mark.parametrize("owner,attr,name", LAYERS, ids=[name for _, _, name in LAYERS])
def test_traced_layer_exists(owner, attr, name):
    assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"
    assert callable(owner.__dict__[attr])


def test_process_pool_is_a_harness_module_attribute():
    # run_experiment must look the pool class up in harness's namespace at
    # call time; a local or lazy import would bypass the tracer's subclass.
    assert harness.__dict__.get("ProcessPoolExecutor") is ProcessPoolExecutor


def test_codebook_exposes_its_shape():
    built = codebook.build_dft_codebook(4, 8)
    assert (built.m, built.n_vec) == (4, 8)


def test_tracer_records_a_serial_and_a_pooled_run():
    ec = ExperimentConfig(base=SystemConfig(M=4, N=2, N_vec=8, N_it=5, realizations=2, seed=1),
                          sweep_key="P_dB", sweep_values=(0.0, 10.0), baselines=("random",))
    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_experiment(ec, workers=1)
        harness.run_experiment(ec, workers=2)
    assert harness.ProcessPoolExecutor is ProcessPoolExecutor  # put back on exit
    totals = tracer.layer_totals()
    assert totals[spans.ROOT_SPAN]["calls"] == 2
    # Each P_dB point is its own group, split into one block per worker.
    assert totals[spans.POOL_SPAN]["calls"] == 2 and tracer.pool_tasks == 4
    assert tracer.codebook_shapes == {(4, 8)}
    assert tracer.members > 0
