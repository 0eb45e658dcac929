"""The benchmark's per-layer tracer must find every entry point it wraps.

`benchmarks/bench_trace.py` wraps program functions by name (module
attributes, names imported into other modules, class attributes). A deleted
or renamed entry point would otherwise only show up when the benchmark runs
with `--trace 1`.
"""
import sys

import avstress
import avstress.cli
import avstress.persist
from conftest import BENCHMARKS, fresh_python

sys.path.insert(0, BENCHMARKS)

import bench_trace  # noqa: E402


def bindings():
    timed, counted = bench_trace._layers(avstress)
    return [(owner, attr) for _, group in timed + counted for owner, attr in group]


def test_install_wraps_and_uninstall_restores(tmp_path, capsys, monkeypatch):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in bindings()]
    # every LML evaluation of a fit must pass through the counted binding
    nfev = []
    real_lbfgsb = avstress.surrogate._lbfgsb

    def counting_lbfgsb(*args, **kwargs):
        res = real_lbfgsb(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(avstress.surrogate, "_lbfgsb", counting_lbfgsb)
    tracer = bench_trace.Tracer()
    tracer.install(avstress)
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
        assert avstress.cli.main(
            ["run", "front", "--sampler", "bo", "--budget", "3", "--out", str(tmp_path)]
        ) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"

    totals = tracer.totals()
    for layer in ("optimizer.suggest_next", "surrogate.fit", "surrogate.posterior_batch",
                  "sobol", "sim.simulate_episode", "planner.plan", "persist.write"):
        assert totals[layer][0] > 0, layer
    assert tracer.counts["surrogate.lml_evals"] > 0
    assert tracer.counts["surrogate.lml_evals"] == sum(nfev)
    assert tracer.counts["optimizer.candidates_scored"] > 0


# `avstress.surrogate` is imported on first use, and other test modules
# import it before this one runs; a fresh interpreter shows whether the
# tracer finds it and every other binding after `import avstress.cli` alone
FRESH_INSTALL_SCRIPT = """
import avstress.cli
import bench_trace

timed, counted = bench_trace._layers(avstress)
bindings = [(owner, attr) for _, group in timed + counted for owner, attr in group]
originals = [owner.__dict__[attr] for owner, attr in bindings]
tracer = bench_trace.Tracer()
tracer.install(avstress)
wrapped = sum(owner.__dict__[attr] is not original
              for (owner, attr), original in zip(bindings, originals))
tracer.uninstall()
restored = sum(owner.__dict__[attr] is original
               for (owner, attr), original in zip(bindings, originals))
print(len(bindings), wrapped, restored)
"""


def test_install_in_a_fresh_interpreter_after_importing_the_cli():
    with fresh_python("-c", FRESH_INSTALL_SCRIPT, path=[BENCHMARKS]) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    n, wrapped, restored = map(int, out.split())
    assert n == len(bindings())
    assert wrapped == restored == n
