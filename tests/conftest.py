import sys

import pytest


@pytest.fixture(autouse=True)
def _fresh_tessellation_memo():
    # triangle.tessellate keeps one resumable closure per group for the life
    # of the process; a test that patches _closure or _fmt expects fresh
    # work.  Read from sys.modules, not imported, so the checks that a run
    # loads no numpy still hold
    triangle = sys.modules.get("schwarz_atlas.triangle")
    if triangle is not None:
        triangle._memo.clear()
