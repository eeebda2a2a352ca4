"""The cyclic-collector pause (``repro.gcpause``) and where it is held.

Bulk ingest, store encode and store decode run with the collector
paused, so no collection of any generation lands inside them; the
pause nests, is shared across threads, and restores exactly the state
it found.  Supervised workers freeze their inherited heap and collect
their own garbage.  A store in the writer's layout is verified by
hashing its payload text, without re-encoding the parsed payload.
"""

import gc
import sys
import threading

import pytest

from repro import gcpause
from repro.core import Thicket
from repro.core import io as store_io
from repro.core.io import (
    load_thicket,
    save_thicket,
    thicket_from_json,
    thicket_to_json,
)
from repro.errors import CorruptStoreError
from repro.graph import Frame, Node
from repro.ingest import load_ensemble
from repro.resilience import ResiliencePolicy, SupervisedExecutor
from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """64 RAJAPerf profiles of one 48-node tree."""
    out = tmp_path_factory.mktemp("campaign")
    paths = write_raja_campaign(out, RAJA_CAMPAIGN[:1], scale=0.4)
    assert len(paths) == 64
    return sorted(paths)


@pytest.fixture
def collector_on():
    """Run with the collector enabled, as a fresh process does."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.fixture
def events(collector_on):
    """What happens, in order, while the test body runs: ``("gc", gen)``
    for every collection (a ``gc.callbacks`` probe) and the names
    :func:`mark_return` records."""
    seen = []

    def probe(phase, info):
        if phase == "start":
            seen.append(("gc", info["generation"]))

    gc.callbacks.append(probe)
    try:
        yield seen
    finally:
        gc.callbacks.remove(probe)


def mark_return(monkeypatch, owner, name, events, wrap=lambda f: f):
    """Record *name* in *events* each time ``owner.name`` returns."""
    orig = getattr(owner, name)

    def marked(*args, **kwargs):
        out = orig(*args, **kwargs)
        events.append(name)
        return out

    monkeypatch.setattr(owner, name, wrap(marked))


class TestNoCollectionInBulkWork:
    """The one collection the pause defers runs when it ends, after the
    work's last step has returned; none runs before."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_load_ensemble(self, campaign, events, monkeypatch, jobs):
        mark_return(monkeypatch, Thicket, "_compose", events,
                    wrap=staticmethod)
        result = load_ensemble(campaign, policy=ResiliencePolicy(jobs=jobs))
        assert len(result.thicket.profile) == 64
        assert events[0] == "_compose", events
        assert gc.isenabled()

    def test_store_encode(self, campaign, events, monkeypatch):
        tk = load_ensemble(campaign).thicket
        mark_return(monkeypatch, store_io, "canonical_json", events)
        events.clear()
        thicket_to_json(tk)
        assert events[0] == "canonical_json", events
        assert gc.isenabled()

    def test_store_decode(self, campaign, events, monkeypatch):
        text = thicket_to_json(load_ensemble(campaign).thicket)
        mark_return(monkeypatch, store_io, "_payload_to_thicket", events)
        events.clear()
        back = thicket_from_json(text)
        assert events[0] == "_payload_to_thicket", events
        assert thicket_to_json(back) == text
        assert gc.isenabled()


class TestPauseGuard:
    def test_nested_pause_restores_on_outermost_exit(self, collector_on):
        with gcpause.paused():
            assert not gc.isenabled()
            with gcpause.paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_threads_interleaving_enable_after_last_exit(self,
                                                         collector_on):
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        states = {}

        def first():
            with gcpause.paused():
                a_in.set()
                b_in.wait(5)
            states["after_a"] = gc.isenabled()
            a_out.set()

        def second():
            a_in.wait(5)
            with gcpause.paused():
                b_in.set()
                a_out.wait(5)
                states["b_inside_after_a"] = gc.isenabled()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert states == {"after_a": False, "b_inside_after_a": False}
        assert gc.isenabled()

    def test_many_threads_keep_the_count(self, collector_on):
        """More threads than cores enter and leave nested pauses with a
        tiny switch interval: a lost update of the depth counter would
        switch the collector on under a holder or leave it off."""
        errors = []

        def churn():
            for _ in range(300):
                with gcpause.paused():
                    with gcpause.paused():
                        if gc.isenabled():
                            errors.append("collector on inside a pause")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert gc.isenabled()
        with gcpause.paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, collector_on):
        gc.disable()
        with gcpause.paused():
            with gcpause.paused():
                pass
        assert not gc.isenabled()
        gc.enable()

    def test_exception_restores_state(self, collector_on):
        with pytest.raises(KeyError):
            with gcpause.paused():
                with gcpause.paused():
                    raise KeyError("boom")
        assert gc.isenabled()
        with gcpause.paused():   # the depth counter is back at zero
            assert not gc.isenabled()
        assert gc.isenabled()


def _collector_state(_item):
    return gc.isenabled(), gc.get_freeze_count()


class TestWorkerCollector:
    def test_worker_freezes_and_collects_under_parent_pause(
            self, collector_on):
        executor = SupervisedExecutor(ResiliencePolicy(jobs=2))
        with gcpause.paused():
            outcomes = executor.map(_collector_state, [0, 1, 2, 3])
        assert all(o.ok for o in outcomes)
        for o in outcomes:
            enabled, frozen = o.value
            assert enabled is True
            assert frozen > 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0   # no parent-side freeze


class TestFastVerify:
    @pytest.fixture
    def store(self, campaign, tmp_path):
        path = tmp_path / "tk.json"
        save_thicket(load_ensemble(campaign[:8]).thicket, path)
        return path

    def test_writer_layout_skips_the_reencode(self, store, monkeypatch):
        def no_reencode(payload):
            raise AssertionError("payload re-encoded on load")

        monkeypatch.setattr(store_io, "canonical_json", no_reencode)
        tk = load_thicket(store)
        assert len(tk.profile) == 8

    def test_payload_flip_is_a_checksum_mismatch(self, store):
        text = store.read_text()
        at = text.index('"payload":') + len('"payload":')
        at += next(i for i, ch in enumerate(text[at:]) if ch.isdigit())
        flipped = "1" if text[at] != "1" else "2"
        store.write_text(text[:at] + flipped + text[at + 1:])
        with pytest.raises(CorruptStoreError, match="checksum mismatch"):
            load_thicket(store)

    def test_checksum_field_flip_is_a_checksum_mismatch(self, store):
        text = store.read_text()
        at = len('{"checksum":"sha256:')
        flipped = "0" if text[at] != "0" else "1"
        store.write_text(text[:at] + flipped + text[at + 1:])
        with pytest.raises(CorruptStoreError, match="checksum mismatch"):
            load_thicket(store)


class TestNodeIdentity:
    def test_node_equality_and_hash_are_object_identity(self):
        assert Node.__eq__ is object.__eq__
        assert Node.__hash__ is object.__hash__
        a, b = Node(Frame(name="main")), Node(Frame(name="main"))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_frame_hash_is_computed_once(self):
        f = Frame({"name": "main", "type": "function"})
        g = Frame(name="main", type="function")
        assert f == g and hash(f) == hash(g) == f._hash
