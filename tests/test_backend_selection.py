"""Backend-selection errors.

``resolve_backend`` is the single funnel every layer goes through —
CLI flags, the ``REPRO_STATE_BACKEND`` environment variable, detector
constructors, net handshakes.  These tests pin its error surface:
unknown names — including the retired ``packed-np`` — fail with a
stable message naming both backends, and the CLI reports them as
usage errors (exit 2), never as tracebacks.
"""

from __future__ import annotations

import pytest

from repro.core.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    resolve_backend,
)
from repro.detectors import FastTrackDetector


def test_backend_universe_is_consistent():
    assert BACKENDS == ("object", "packed")
    assert DEFAULT_BACKEND == "packed"


def test_resolve_explicit_and_default():
    assert resolve_backend("object") == "object"
    assert resolve_backend("packed") == "packed"
    assert resolve_backend(None) == DEFAULT_BACKEND


def test_resolve_unknown_backend_names_choices():
    for bad in ("slab-of-wasps", "packed-np"):
        with pytest.raises(ValueError) as exc:
            resolve_backend(bad)
        msg = str(exc.value)
        assert f"unknown state backend {bad!r}" in msg
        for name in BACKENDS:
            assert name in msg


def test_environment_variable_is_honored(monkeypatch):
    monkeypatch.setenv("REPRO_STATE_BACKEND", "object")
    assert resolve_backend(None) == "object"
    # an explicit argument wins over the environment
    assert resolve_backend("packed") == "packed"
    # the empty string means "unset", not "backend named ''"
    monkeypatch.setenv("REPRO_STATE_BACKEND", "")
    assert resolve_backend(None) == DEFAULT_BACKEND


def test_environment_variable_unknown_value(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_STATE_BACKEND", "nope")
    with pytest.raises(ValueError, match="unknown state backend 'nope'"):
        resolve_backend(None)
    # the CLI reports a bad environment value as a usage error
    for bad in ("packed-np2", "packed-np"):
        monkeypatch.setenv("REPRO_STATE_BACKEND", bad)
        with pytest.raises(SystemExit) as exc:
            main(["detect", "micro"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown state backend {bad!r}" in err
        for name in BACKENDS:
            assert name in err
    # ``stream`` sends no backend and leaves the choice to the server, so
    # the client's leftover environment value is never read there
    import repro.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_stream", lambda args: seen.append(args) or 0)
    argv = ["stream", "t.pacr", "--address", "unix:///s", "--session", "s"]
    assert main(argv) == 0
    assert seen[0].state_backend is None


def test_detector_constructor_rejects_unknown_backend():
    for bad in ("bogus", "packed-np"):
        with pytest.raises(ValueError, match="unknown state backend"):
            FastTrackDetector(backend=bad)


def test_cli_rejects_unknown_backend(capsys):
    from repro.cli import main

    for bad in ("bogus", "packed-np"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--workload", "micro", "--state-backend", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--state-backend" in err
        for name in BACKENDS:
            assert name in err
