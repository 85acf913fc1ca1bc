"""Start-up cost: importing wgclust and running synth or eval load numpy but no scipy module.

scipy loads at the first call that needs it (attention, contraction), so a
process that only imports the package, synthesizes a graph or evaluates a
prediction never pays its import time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import wgclust

SRC = str(Path(wgclust.__file__).resolve().parents[1])

REPORT_SCIPY = ("import json, sys\n"
                "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def _scipy_modules_after(code: str) -> list[str]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT_SCIPY}"],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_cli_loads_no_scipy():
    assert _scipy_modules_after("import wgclust.cli") == []


def test_synth_loads_no_scipy(tmp_path):
    out = tmp_path / "synth"
    code = (
        "import wgclust.cli\n"
        f"code = wgclust.cli.main(['synth', '--nodes', '12', '--clusters', '2', '--p-in', '0.6',"
        f" '--p-out', '0.1', '--noise-fraction', '0.2', '--seed', '1', '--out', {str(out)!r}])\n"
        "assert code == 0, code"
    )
    assert _scipy_modules_after(code) == []
    assert (out / "edges.tsv").exists()


def test_eval_loads_no_scipy(tmp_path):
    pred, truth = tmp_path / "assignment.csv", tmp_path / "labels.tsv"
    pred.write_text("node,label,membership\n0,1,1.0\n1,1,1.0\n2,0,1.0\n", encoding="utf-8")
    truth.write_text("0\t0\n1\t0\n2\t1\n", encoding="utf-8")
    code = (
        "import wgclust.cli\n"
        f"code = wgclust.cli.main(['eval', '--pred', {str(pred)!r}, '--truth', {str(truth)!r},"
        f" '--out', {str(tmp_path / 'eval')!r}])\n"
        "assert code == 0, code"
    )
    assert _scipy_modules_after(code) == []
    assert json.loads((tmp_path / "eval" / "eval.json").read_text())["accuracy"] == 1.0


def test_contract_loads_scipy_at_first_call():
    # the guard above would also pass if the probe never saw scipy at all
    code = (
        "from wgclust.contraction import ContractionConfig, contract\n"
        "from wgclust.graph import synth_weighted_sbm\n"
        "g = synth_weighted_sbm(30, 2, 0.6, 0.1, 3, 1, 0).graph\n"
        "contract(g, ContractionConfig(core_count=2))"
    )
    loaded = _scipy_modules_after(code)
    assert "scipy.sparse" in loaded and "scipy.sparse.csgraph" in loaded
