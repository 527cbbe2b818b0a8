"""numpy stays off the import and exact-solve path.

Only the heuristics, the discrete-event simulator and the scipy MILP
backend use numpy.  Every CLI call, ``repro serve`` process and campaign
worker imports the entry points below and solves through bnb, so loading
numpy there would cost each launch its import time for nothing.  The
check runs in a fresh interpreter: the test process itself has long
imported numpy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro, repro.cli, repro.service.server, repro.campaign.runner
    from repro.algorithms import exact
    from repro.algorithms.problem import Objective, ProblemSpec

    plat = repro.Platform.heterogeneous([3, 2, 2, 1])
    apps = [
        repro.PipelineApplication.from_works([4, 2, 7, 3]),
        repro.ForkApplication.from_works(2, [5, 3, 4]),
        repro.ForkJoinApplication.from_works(2, [5, 3], 1),
    ]
    for app in apps:
        spec = ProblemSpec(app, plat, True)
        period = exact.guarded_optimal(spec, Objective.PERIOD).period
        for objective, bound in ((Objective.LATENCY, None),
                                 (Objective.LATENCY, 1.5 * period)):
            sol = exact.guarded_optimal(spec, objective, period_bound=bound)
            assert sol.meta["algorithm"] == "bnb", sol.meta
    assert "numpy" not in sys.modules, "numpy imported on the solve path"

    from repro.heuristics import improve_mapping, pipeline_period_greedy

    seed = pipeline_period_greedy(apps[0], plat, 2)
    better = improve_mapping(seed, Objective.PERIOD)
    assert better.period <= seed.period
    assert "numpy" in sys.modules
    print("ok")
    """
)


def test_entry_points_and_bnb_solves_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
