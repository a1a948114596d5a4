"""Data files of the 17-run output matrix against tests/golden/manifest.json."""

from __future__ import annotations

import json
import warnings

import golden_matrix


def test_data_files_match_the_manifest(tmp_path):
    # re-pin with `PYTHONPATH=src python tests/golden_matrix.py` (see README)
    manifest = json.loads(golden_matrix.MANIFEST.read_text())
    exact = golden_matrix.same_build(manifest)
    if not exact:
        here = golden_matrix.build()
        warnings.warn(f"manifest made on numpy {manifest['numpy']}, {manifest['platform']}; "
                      f"this is numpy {here['numpy']}, {here['platform']}: comparing parsed "
                      f"values at rel {golden_matrix.VALUE_RTOL:g}, not bytes")
    lines = golden_matrix.differences(manifest, golden_matrix.run_matrix(tmp_path), exact)
    assert not lines, "data files differ from the manifest:\n" + "\n".join(lines)
