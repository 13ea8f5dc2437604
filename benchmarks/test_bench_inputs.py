"""The benchmark's own tests: seeded inputs, their limits, and the metric
names that BENCHMARK.json promises."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import inputs
import run
from hgpoly.cli import main
from hgpoly.constructs import enumerate_constructs
from hgpoly.graphs import Graph, incidence_hypergraph
from hgpoly.hypergraph import Hypergraph

WORKLOADS = ("homology", "check", "realize")
POOL = {name: wl.pool for name, wl in run.WORKLOADS.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = inputs.write_inputs(tmp_path / "a", inputs.make_inputs(workload, 7, POOL[workload]))
    second = inputs.write_inputs(tmp_path / "b", inputs.make_inputs(workload, 7, POOL[workload]))
    assert [p.name for p in first] == [p.name for p in second]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
    other = inputs.make_inputs(workload, 8, POOL[workload])
    assert [d for _, d in other] != [json.loads(p.read_text()) for p in first]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_accepts_every_generated_file(workload, tmp_path):
    argv = ["hg", "check"] if workload == "realize" else ["graph", "validate"]
    for path in inputs.write_inputs(tmp_path, inputs.make_inputs(workload, 3, POOL[workload])):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv + [str(path)]) == 0, path.name
        assert not err.getvalue(), path.name


def test_realize_inputs_stay_within_the_oracle_and_feasibility_limits():
    sizes = set()
    for seed in (1, 2):
        for _, data in inputs.make_inputs("realize", seed, POOL["realize"]):
            n = len(data["vertices"])
            sizes.add(n)
            systems, terms = inputs.hypergraph_cost(data)
            if n == inputs.ORACLE_VERTICES:
                assert 0 < systems <= inputs.ORACLE_MAX_SYSTEMS
                assert len(data["hyperedges"]) < 2 * n  # a hypertree plus singletons
            else:
                assert systems == 0 and terms <= inputs.REALIZE_MAX_TERMS
    assert sizes == set(inputs.HYPERGRAPH_SIZES)


def test_graph_inputs_have_the_stated_shape():
    for workload in ("homology", "check"):
        for name, data in inputs.make_inputs(workload, 4, POOL[workload]):
            edges = len(data["involution"])
            assert edges in inputs.GRAPH_EDGES[workload]
            assert name.endswith(f"_e{edges}v{len(data['vertices'])}")
            assert len(data["legs"]) <= 3


def test_balancing_counts_agree_with_hgpoly():
    for workload in ("check", "realize"):
        for _, data in inputs.make_inputs(workload, 5, 12):
            if workload == "realize":
                h = Hypergraph.from_json(data)
                pos = {v: i for i, v in enumerate(h.vertices)}
                masks = [sum(1 << pos[v] for v in e) for e in data["hyperedges"]]
                assert inputs.saturation_size(len(h), masks) == len(h.saturation_masks())
            else:
                h = incidence_hypergraph(Graph.from_json(data))
                masks = list(h.edges)
            faces = enumerate_constructs(h)
            rank0 = sum(c.num_nodes() == len(h) for c in faces)
            assert inputs.count_constructs(len(h), masks) == len(faces)
            assert inputs.count_constructs(len(h), masks, rank0=True) == rank0


def test_harrell_davis_stays_within_the_samples():
    assert run.harrell_davis([3.0], 0.9) == 3.0
    assert run.harrell_davis([2.0] * 9, 0.5) == pytest.approx(2.0)
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.harrell_davis(values, 0.5) == pytest.approx(3.0)
    assert 4.0 < run.harrell_davis(values, 0.9) < 5.0


def test_benchmark_json_names_the_printed_metrics():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
