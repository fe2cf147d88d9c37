"""Tests for repro.obs.events / repro.obs.bus: catalog, journal I/O."""

import pytest

from repro.obs.bus import EventBus, read_journal, read_journal_text
from repro.obs.events import (
    EVENT_CATALOG,
    JOURNAL_VERSION,
    JournalError,
    ObsEvent,
    validate_event,
)


class TestCatalog:
    def test_every_event_validates_with_required_keys(self):
        for name, required in EVENT_CATALOG.items():
            validate_event(name, {k: 0 for k in required})

    def test_unknown_name_rejected(self):
        with pytest.raises(JournalError, match="unknown event name"):
            validate_event("no.such.event", {})

    def test_missing_required_key_rejected(self):
        with pytest.raises(JournalError, match="'plan_units'"):
            validate_event("run.start", {})

    def test_extra_keys_allowed(self):
        """The catalog pins a floor, not a ceiling."""
        validate_event("unit.done", {
            "unit": "u", "source": "executed", "detected": 1,
            "total": 2, "errors": 0, "condition": "VLV"})


class TestObsEvent:
    def test_line_round_trip(self):
        event = ObsEvent(3, "unit.resumed", {"unit": "bridge:1e3:VLV"})
        assert ObsEvent.from_line(event.to_line()) == event

    def test_line_is_canonical_json(self):
        line = ObsEvent(1, "run.start", {"plan_units": 4}).to_line()
        assert line == '{"data":{"plan_units":4},"event":"run.start","seq":1}'

    @pytest.mark.parametrize("line,match", [
        ("not json", "invalid JSON"),
        ("[1,2]", "not an object"),
        ('{"event":"run.start","data":{"plan_units":1}}', "'seq'"),
        ('{"seq":0,"event":"run.start","data":{"plan_units":1}}',
         "positive int"),
        ('{"seq":1,"event":"run.start","data":[]}', "must be an object"),
        ('{"seq":1,"event":"nope","data":{}}', "unknown event name"),
    ])
    def test_bad_lines_rejected(self, line, match):
        with pytest.raises(JournalError, match=match):
            ObsEvent.from_line(line)


class TestEventBus:
    def test_emit_assigns_increasing_seq(self):
        bus = EventBus()
        first = bus.emit("run.start", plan_units=2)
        second = bus.emit("unit.resumed", unit="u")
        assert (first.seq, second.seq) == (1, 2)
        assert len(bus) == 2

    def test_emit_validates(self):
        bus = EventBus()
        with pytest.raises(JournalError):
            # repro: lint-disable=OBS002 -- the missing key IS the test:
            # emit must reject a payload below the catalog floor.
            bus.emit("run.start")  # missing plan_units
        assert len(bus) == 0

    def test_emit_rejects_unserialisable_payload_at_call_site(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.emit("unit.resumed", unit=object())
        assert len(bus) == 0

    def test_set_meta_first_writer_wins(self):
        bus = EventBus(meta={"tool": "shmoo"})
        bus.set_meta({"tool": "campaign"})
        assert bus.meta == {"tool": "shmoo"}
        empty = EventBus()
        empty.set_meta({"tool": "campaign"})
        assert empty.meta == {"tool": "campaign"}

    def test_render_read_round_trip(self):
        bus = EventBus(meta={"seed": 11})
        bus.emit("run.start", plan_units=1)
        bus.emit("run.done", executed_units=1, resumed_units=0,
                 quarantined_sites=0)
        meta, events = read_journal_text(bus.render())
        assert meta == {"seed": 11}
        assert events == bus.events

    def test_flush_writes_readable_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = EventBus(path, meta={"seed": 11})
        bus.emit("run.start", plan_units=1)
        bus.flush()
        meta, events = read_journal(path)
        assert meta == {"seed": 11}
        assert [e.name for e in events] == ["run.start"]

    def test_in_memory_flush_is_noop(self):
        EventBus().flush()  # must not raise


class TestReadJournal:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no run journal"):
            read_journal(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("text,match", [
        ("", "empty"),
        ("not json\n", "invalid JSON header"),
        ('{"schema":"wrong","version":1,"meta":{}}\n', "schema mismatch"),
        ('{"schema":"repro.run-journal","version":%d,"meta":{}}\n'
         % (JOURNAL_VERSION + 1), "unsupported journal version"),
        ('{"schema":"repro.run-journal","version":1,"meta":[]}\n',
         "'meta' is not an object"),
    ])
    def test_bad_headers_rejected(self, text, match):
        with pytest.raises(JournalError, match=match):
            read_journal_text(text)

    def test_non_increasing_seq_rejected(self):
        header = '{"schema":"repro.run-journal","version":1,"meta":{}}'
        line = ObsEvent(1, "unit.resumed", {"unit": "u"}).to_line()
        with pytest.raises(JournalError, match="line 3.*not greater"):
            read_journal_text("\n".join([header, line, line]))

    def test_bad_event_line_names_line_number(self):
        header = '{"schema":"repro.run-journal","version":1,"meta":{}}'
        with pytest.raises(JournalError, match="line 2"):
            read_journal_text(header + "\ngarbage\n")
