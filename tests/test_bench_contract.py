"""The names the benchmark's tracer wraps must exist in the package.

bench/spans.py reassigns attributes of udwsim's modules to counting
wrappers and puts the originals back afterwards. A refactor that renames or
drops one of those names breaks the benchmark's trace mode; this test makes
it fail here instead.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_wrapped_attribute():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))

    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
