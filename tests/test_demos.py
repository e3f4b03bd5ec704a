"""The demo scripts print the same text, byte for byte."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout, recorded under numpy 2.4.6; the text is the
# same at one thread and at two.  A change that moves a demo line on purpose
# updates this table and lists the line in CHANGES.md.
_DEMO_SHA256 = {
    "carleman_inequalities.py": "1d45a20b28002dfc06c673c7df2e8d360c9cb1010f3a4683ec82648dc25e23f6",
    "frequency_functions.py": "12ff4e4b8c7959e6b8e920cee00286111550dd137cd7e748bffec631ed57df04",
    "lifting_basics.py": "39b88aa810b283cf3f2f03676d38722859fdfeb44fa2e74f0c3238f3abb3e9fc",
    "map_and_surface_densities.py": "06341ae7474764f391aa1c7c6ae19c7e278a2d14d6db54e89baf272d8b951b8b",
    "two_phase_products.py": "069c5c502d469df68a0b93329594dedf1afea25dd1a447fc1d9161e03a396bd7",
    "weight_limit.py": "6888154cfcf4b18a31ecfcf379ff856e7618c1c8aebdaa9e16f469869a3e76e8",
}


def test_every_demo_is_in_the_table():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(_DEMO_SHA256)


@pytest.mark.parametrize("script", sorted(_DEMO_SHA256))
def test_demo_prints_the_recorded_text(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)], env=env, capture_output=True, check=True, timeout=120
    ).stdout
    assert hashlib.sha256(out).hexdigest() == _DEMO_SHA256[script]
