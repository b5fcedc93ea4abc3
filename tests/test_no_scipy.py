import json
import os
import subprocess
import sys
from pathlib import Path

import preyswitch
from conftest import TABLE1

# a library run: every public entry point the benchmark's workloads use, at
# the default config; then the names of the scipy modules it loaded
_RUN = """
import json, sys
import preyswitch, preyswitch.cli
from preyswitch import (
    IntegratorConfig, find_shilnikov, integrate_filippov, lv_period,
    return_map_sample, validate_parameters,
)

cfg = IntegratorConfig()
table1 = validate_parameters(**json.loads(sys.argv[1]))
cert = find_shilnikov(table1, (0.994, 10.0), cfg)
integrate_filippov((1.2, 0.4, 1.0), IntegratorConfig(t_max=60.0), table1)
lv_period(0.5 * table1.tau, cfg, table1)
return_map_sample(cert.params, (cert.x0 - 0.039, cert.x0 + 0.041), 5, cfg)
code = preyswitch.cli.main(
    ["sweep", "--params", sys.argv[2], "--beta1-range", "6.0:9.0", "--n", "4", "--out", sys.argv[3]]
)
assert code == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_a_library_run_loads_no_scipy(tmp_path):
    params = dict(TABLE1, beta1=0.994)
    params_file, out = tmp_path / "table1.json", tmp_path / "sweep.csv"
    params_file.write_text(json.dumps(params))
    src = str(Path(preyswitch.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(params), str(params_file), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
    assert len(out.read_text().splitlines()) == 5
