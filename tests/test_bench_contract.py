"""The benchmark's tracer still finds and restores every name it patches.

``perfbench/run.py --trace 1`` stops with an error when ``Tracer.install()``
cannot find an attribute it wraps, so a rename inside the package would
break the benchmark without failing any other test.  This test drives
the tracer through the same layers as a traced run, on a small instance.
"""

from pathlib import Path

from cbdetect import cli, eigen, inference, operators
from cbdetect.model import CbmParams, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_install_metrics_uninstall(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import PER_LAYER, Tracer

    watched = [
        (operators.SparseMatrix, "matvec"),
        (operators.SparseMatrix, "is_symmetric"),
        (operators.DirectedEdgeIndex, "from_instance"),
        (eigen, "gershgorin_upper"),
        (inference, "detect"),
        (cli, "main"),
    ]
    before = {(owner, attr): _current(owner, attr) for owner, attr in watched}
    inst = generate(CbmParams(n=200, alpha=8, epsilon=0.25, seed=3))
    path = tmp_path / "x.cbm"
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._restore)
        assert all(_current(owner, attr) is not orig for owner, attr, orig in patched)
        for method in ("NB", "BH", "BP"):
            inference.detect(inst, method, epsilon=0.25)
        gen = ["gen", "--n", "200", "--alpha", "8", "--epsilon", "0.25", "--seed", "4"]
        assert cli.main(gen + ["--out", str(path)]) == cli.EXIT_OK
        assert cli.main(["detect", "--in", str(path), "--methods", "BH"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics = tracer.metrics(1)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["eigen.matvecs"]["value"] > 0
    assert metrics["operators.bprime_nnz"]["value"] > 0
    assert metrics["operators.h_nnz"]["value"] > 0
    assert metrics["model.edges"]["value"] > 0
    # operators.edge_index_s would read 0 without failing if BP stopped building its index
    names = [s.name for s in tracer.spans]
    edge_index = [s for s in tracer.spans if s.name == "operators.edge_index"]
    assert edge_index and all(names[s.parent] == "inference.bp_fixed_point" for s in edge_index)
    assert {(owner, attr) for owner, attr, _ in patched} >= set(watched)
    for owner, attr, orig in patched:
        assert _current(owner, attr) is orig
    for (owner, attr), orig in before.items():
        assert _current(owner, attr) is orig
