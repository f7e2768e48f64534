"""One simulation identity: (program, resolved config, parallel).

Bars and custom runs that resolve to the same identity share one memo
entry and one persistent-cache entry, so the engine runs once.
"""

import hashlib

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments import metrics as metrics_mod
from repro.experiments import runner
from repro.experiments.report import generate_report
from repro.tlssim.config import SimConfig
from repro.tlssim.engine import TLSEngine

#: Figure 11's C stall mode: the same simulation as bar C.
FIG11_C = SimConfig().with_mode(compiler_mem_sync=True, hw_sync=False)


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts ``TLSEngine.run`` calls."""
    runs = []
    real_run = TLSEngine.run

    def counted(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(TLSEngine, "run", counted)
    return runs


def test_cold_serial_report_runs_each_identity_once(fresh_bundles, engine_runs):
    text = generate_report(workloads=["go", "mcf"])
    assert len(engine_runs) == 26  # one per distinct identity
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "060744ddcbd3c53992925dcf345481e8653dbcf3eaf00fa0b99e5aca23c4ded1"
    )


def test_custom_run_shares_the_bar_result(tmp_path, fresh_bundles, engine_runs):
    cache_mod.configure(True, str(tmp_path / "c"))
    bundle = runner.bundle_for("go")
    bar = bundle.simulate("C")
    assert len(engine_runs) == 1
    assert bundle.simulate_custom("sync_ref", FIG11_C) is bar
    assert len(engine_runs) == 1

    runner.clear_cache()
    run = metrics_mod.reset()
    fresh = runner.bundle_for("go")
    assert fresh.simulate_custom("sync_ref", FIG11_C).to_state() == bar.to_state()
    assert len(engine_runs) == 1 and not fresh.is_compiled
    assert [(job.kind, job.source) for job in run.jobs] == [
        ("custom", metrics_mod.SOURCE_CACHE)
    ]
