"""The benchmark's span recorder must find every function it traces.

``bench/tracing.py`` wraps the public functions named in its ``TRACED``
table and rebinds the references other modules hold to them.  A rename
or a dropped call in the package would silently leave a traced layer
empty, so this checks the installation in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from tracing import SHORT, TRACED, Tracer

tracer = Tracer()
tracer.install("motzkin_ncl")
modules = {name: sys.modules["motzkin_ncl." + name] for name in TRACED}
report = {}
for layer, functions in TRACED.items():
    for func in functions:
        name = layer + "." + SHORT.get(func, func)
        wrapper = tracer.entry.get(name)
        callers = sorted(
            other
            for other, module in modules.items()
            if other != layer and wrapper is not None
            and any(value is wrapper for value in vars(module).values())
        )
        report[name] = {"wrapped": wrapper is not None, "callers": callers}
print(json.dumps(report))
"""


def test_every_traced_function_gets_a_wrapper():
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report and all(entry["wrapped"] for entry in report.values())
    # every layer below the CLI is reached through a rebound reference
    unreached = [
        name
        for name, entry in report.items()
        if name != "cli.main" and not entry["callers"]
    ]
    assert unreached == []
