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
    "frequency_functions.py": "bb8308d1d5a2ec8ece05f13d064e745da606c76e8a7134f1bb309d37259c563a",
    "lifting_basics.py": "39b88aa810b283cf3f2f03676d38722859fdfeb44fa2e74f0c3238f3abb3e9fc",
    "map_and_surface_densities.py": "69145bb40f2ab41939fd4b595e0c0b6c1af5064bcf5cc1ab8513343ec5c346c5",
    "two_phase_products.py": "9d8cf2db7e26bc606fe000ddfdadf8365619072230eadbed854989c9ac0d6851",
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
