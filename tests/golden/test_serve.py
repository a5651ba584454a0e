"""Golden snapshots of ``repro serve --json``.

A serve report carries every modelled quantity of a load: per-job
checksums, virtual-clock latencies and makespan, cache, admission and
breaker accounting.  None of it depends on host time, so four runs are
pinned byte for byte: the default load, a chaos leg, a deadline-bound
load and a scenario load.
"""

import pytest

from repro.cli import main

RUNS = {
    "cli_serve.json": [],
    "cli_serve_chaos_seed3.json": ["--chaos", "--chaos-seed", "3"],
    "cli_serve_deadline_seed5.json": ["--jobs", "48", "--deadline-ms", "2",
                                      "--seed", "5"],
    "cli_serve_scenario_diffusion.json": ["--scenario", "diffusion",
                                          "--jobs", "16"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_serve_json(golden, capsys, name):
    assert main(["serve", *RUNS[name], "--json"]) == 0
    golden(name, capsys.readouterr().out)
