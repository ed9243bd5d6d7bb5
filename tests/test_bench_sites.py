"""The benchmark's traced mode (``bench/spans.py``) wraps quiltlab
attributes by name, so a removed or renamed attribute breaks it; every
site it lists must exist where it looks."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_site_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = spans._sites()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in sites
               if attr not in owner.__dict__]
    assert sites and not missing
