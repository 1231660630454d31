"""The benchmark tracer still finds every seam it wraps in the package.

bench/tracer.py wraps named functions of the package from outside and
reads some of their arguments. A renamed function or a changed argument
would otherwise show only as a null metric in a traced benchmark run;
here it fails a test. montecarlo is imported before the tracer is
installed, because the tracer wraps only modules already imported.
"""

from pathlib import Path

import pytest

from d2d_secrecy import cli, montecarlo
from oracle import R_G_STAR

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def _traced_metrics(tracer, capsys, trials):
    """Trace sweep-d and an mc-validate run of the given trial count; the
    tracer's metrics, after checking that every seam was found and
    unwrapped again and that no metric is null."""
    operations = (
        ["sweep-d"],
        ["mc-validate", "--d", "0.6", "--r-g", repr(R_G_STAR), "--trials", str(trials)],
    )
    # the first simulation rebinds montecarlo's numpy stand-in to numpy,
    # so load numpy now, for the snapshot to hold what the run leaves
    montecarlo.np.ndarray
    before = [dict(vars(module)) for module in (cli, montecarlo)]
    traced = tracer.Tracer()
    with traced.installed():
        for index, argv in enumerate(operations):
            traced.op = index
            assert cli.main(argv) == 0
    capsys.readouterr()
    # every wrapper is gone again
    assert [dict(vars(module)) for module in (cli, montecarlo)] == before
    assert traced.missing == set()
    assert traced.hook_failures == set()
    every_op = set(range(len(operations)))
    metrics = tracer.layer_metrics(traced.spans, {layer: every_op for layer in tracer.LAYERS})
    assert [name for name, value in metrics.items() if value is None] == []
    return metrics


def test_every_seam_is_wrapped_and_measured(tracer, capsys):
    _traced_metrics(tracer, capsys, 100)
