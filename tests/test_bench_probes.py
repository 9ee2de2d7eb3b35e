'''The benchmark's tracer must find every library attribute it wraps.

perfbench/tracing.py wraps corm functions and methods by name; a renamed
or deleted target would otherwise only fail the benchmark's traced run.
'''

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / 'perfbench'))

import tracing  # noqa: E402


def test_install_wraps_and_uninstall_restores():
    targets = [(owner, attr) for owner, attr, _ in
               tracing._probes(tracing.Tracer())]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    uninstall = tracing.install(tracing.Tracer())
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in targets]
    finally:
        uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(owner.__dict__[attr] is o
               for (owner, attr), o in zip(targets, originals))
