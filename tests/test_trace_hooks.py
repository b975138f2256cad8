"""The benchmark's tracer finds every name it hooks.

``perfbench/tracing.py`` swaps wrappers into module namespaces by name; a hook
whose target was renamed or moved is only warned about, and its per-layer
metric then reads 0.  This pins the names it looks up.
"""

from pathlib import Path

import dfadecomp.cli  # noqa: F401  (install() looks the modules up in sys.modules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
