import os
import subprocess
import sys
from pathlib import Path

import wristkin

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert len(set(wristkin.__all__)) == len(wristkin.__all__)
    assert [name for name in wristkin.__all__ if not hasattr(wristkin, name)] == []
    namespace = {}
    exec("from wristkin import *", namespace)
    assert set(wristkin.__all__) <= namespace.keys()


def test_import_loads_no_scipy():
    # a fresh interpreter: this test session has scipy loaded already
    probe = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import wristkin\n"
        "print(loaded())\n"
        "import wristkin.cli\n"
        "print(loaded())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]"]
