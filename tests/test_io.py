"""Unit tests for trace serialisation (JSON Lines and CSV)."""

import io
import json

import pytest

from repro.core.errors import TraceFormatError
from repro.core.history import History, MultiHistory
from repro.core.operation import OpType, read, write
from repro.core.builder import TraceBuilder
from repro.io.formats import (
    JsonlDecoder,
    dump_csv,
    dump_jsonl,
    iter_jsonl,
    iter_jsonl_handle,
    load_csv,
    load_jsonl,
    load_trace,
    operation_from_dict,
    operation_to_dict,
    stream_trace,
)
from repro.workloads.synthetic import exactly_k_atomic_history


def sample_trace():
    ops = []
    ops.extend(exactly_k_atomic_history(2, 4, key="k1").operations)
    ops.append(write("w-extra", 0.0, 1.0, key="k2", client="c9", weight=3))
    ops.append(read("w-extra", 2.0, 3.0, key="k2", client="c4"))
    return MultiHistory(ops)


class TestOperationDicts:
    def test_round_trip_write(self):
        op = write("v", 1.0, 2.0, key="k", client="c", weight=4)
        back = operation_from_dict(operation_to_dict(op))
        assert back.op_type is OpType.WRITE
        assert back.value == "v"
        assert back.interval == (1.0, 2.0)
        assert back.key == "k" and back.client == "c"
        assert back.weight == 4

    def test_round_trip_read(self):
        op = read("v", 1.0, 2.0, key="k")
        back = operation_from_dict(operation_to_dict(op))
        assert back.is_read and back.weight == 1

    def test_reads_do_not_serialise_weight(self):
        assert "weight" not in operation_to_dict(read("v", 1.0, 2.0))

    def test_malformed_record_rejected(self):
        with pytest.raises(TraceFormatError):
            operation_from_dict({"op_type": "write", "value": "v", "start": "x", "finish": 2})
        with pytest.raises(TraceFormatError):
            operation_from_dict({"value": "v", "start": 0.0, "finish": 1.0})


class TestJsonl:
    def test_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        count = dump_jsonl(trace, path)
        assert count == trace.total_operations()
        back = load_jsonl(path)
        assert set(back.keys()) == set(trace.keys())
        assert back.total_operations() == trace.total_operations()

    def test_round_trip_preserves_values_and_times(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        back = load_jsonl(path)
        original = sorted(
            (op.op_type.value, str(op.value), op.start, op.finish)
            for key in trace.keys()
            for op in trace[key]
        )
        loaded = sorted(
            (op.op_type.value, str(op.value), op.start, op.finish)
            for key in back.keys()
            for op in back[key]
        )
        assert original == loaded

    def test_single_history_accepted(self, tmp_path):
        h = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
        path = tmp_path / "single.jsonl"
        assert dump_jsonl(h, path) == 2
        assert load_jsonl(path).total_operations() == 2

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        record = json.dumps(operation_to_dict(write("a", 0.0, 1.0, key="k")))
        path.write_text(record + "\n\n" + "\n")
        assert load_jsonl(path).total_operations() == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op_type": "write"\n')
        with pytest.raises(TraceFormatError):
            load_jsonl(path)

    def test_weights_survive_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        back = load_jsonl(path)
        weights = {w.value: w.weight for w in back["k2"].writes}
        assert weights["w-extra"] == 3


class TestCsv:
    def test_round_trip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        count = dump_csv(trace, path)
        assert count == trace.total_operations()
        back = load_csv(path)
        assert back.total_operations() == trace.total_operations()
        assert set(back.keys()) == set(trace.keys())

    def test_missing_optional_fields_default(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "op_type,key,value,start,finish,client,weight\n"
            "write,k,v,0.0,1.0,,\n"
            "read,k,v,2.0,3.0,,\n"
        )
        back = load_csv(path)
        h = back["k"]
        assert h.writes[0].weight == 1
        assert h.writes[0].client is None

    def test_malformed_row_reports_location(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "op_type,key,value,start,finish,client,weight\n"
            "write,k,v,not-a-number,1.0,,\n"
        )
        with pytest.raises(TraceFormatError):
            load_csv(path)


class TestStreaming:
    def test_iter_jsonl_streams_operations_lazily(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        stream = iter_jsonl(path)
        first = next(stream)
        assert first.key in set(trace.keys())
        rest = list(stream)
        assert 1 + len(rest) == trace.total_operations()

    def test_builder_fed_from_stream_matches_batch_load(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        streamed = TraceBuilder(iter_jsonl(path)).build()
        batch = load_jsonl(path)
        assert set(streamed.keys()) == set(batch.keys())
        for key in batch.keys():
            assert len(streamed[key]) == len(batch[key])

    def test_stream_trace_dispatches_on_extension(self, tmp_path):
        trace = sample_trace()
        jsonl, csvp = tmp_path / "t.jsonl", tmp_path / "t.csv"
        dump_jsonl(trace, jsonl)
        dump_csv(trace, csvp)
        assert len(list(stream_trace(jsonl))) == trace.total_operations()
        assert len(list(stream_trace(csvp))) == trace.total_operations()

    def test_load_trace_round_trips_both_formats(self, tmp_path):
        trace = sample_trace()
        for name in ("t.jsonl", "t.csv"):
            path = tmp_path / name
            (dump_csv if name.endswith(".csv") else dump_jsonl)(trace, path)
            back = load_trace(path)
            assert back.total_operations() == trace.total_operations()
            assert set(back.keys()) == set(trace.keys())

    def test_iter_jsonl_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op_type": "write"\n')
        with pytest.raises(TraceFormatError):
            list(iter_jsonl(path))


class TestLiveStreaming:
    def test_iter_jsonl_handle_reads_any_text_stream(self, tmp_path):
        import io as iomod

        from repro.io.formats import iter_jsonl_handle

        trace = sample_trace()
        path = tmp_path / "trace.jsonl"
        dump_jsonl(trace, path)
        handle = iomod.StringIO(path.read_text())
        ops = list(iter_jsonl_handle(handle, source="<test>"))
        assert len(ops) == trace.total_operations()

    def test_iter_jsonl_handle_error_names_source(self):
        import io as iomod

        from repro.io.formats import iter_jsonl_handle

        with pytest.raises(TraceFormatError, match="<bad-pipe>:1"):
            list(iter_jsonl_handle(iomod.StringIO("{broken\n"), source="<bad-pipe>"))

    def test_follow_jsonl_reads_appended_operations(self, tmp_path):
        import threading
        import time

        from repro.io.formats import follow_jsonl

        trace = sample_trace()
        records = [json.dumps(operation_to_dict(op)) for key in trace.keys()
                   for op in trace[key].operations]
        path = tmp_path / "grow.jsonl"
        path.write_text(records[0] + "\n")

        def appender():
            with open(path, "a", encoding="utf-8") as fh:
                for record in records[1:]:
                    time.sleep(0.01)
                    fh.write(record + "\n")
                    fh.flush()

        thread = threading.Thread(target=appender)
        thread.start()
        ops = list(
            follow_jsonl(path, poll_interval_s=0.01, idle_timeout_s=0.5)
        )
        thread.join()
        assert len(ops) == len(records)

    def test_follow_jsonl_from_end_skips_existing(self, tmp_path):
        from repro.io.formats import follow_jsonl

        trace = sample_trace()
        path = tmp_path / "static.jsonl"
        dump_jsonl(trace, path)
        ops = list(
            follow_jsonl(
                path, poll_interval_s=0.01, idle_timeout_s=0.05, from_start=False
            )
        )
        assert ops == []

    def test_follow_jsonl_yields_final_line_without_newline(self, tmp_path):
        from repro.io.formats import follow_jsonl

        trace = sample_trace()
        records = [json.dumps(operation_to_dict(op)) for key in trace.keys()
                   for op in trace[key].operations]
        path = tmp_path / "truncated.jsonl"
        # Writer died mid-append: the last record has no trailing newline.
        path.write_text("\n".join(records))
        ops = list(
            follow_jsonl(path, poll_interval_s=0.01, idle_timeout_s=0.05)
        )
        assert len(ops) == len(records)

    def test_follow_jsonl_rejects_bad_poll_interval(self, tmp_path):
        from repro.io.formats import follow_jsonl

        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            next(follow_jsonl(path, poll_interval_s=0.0))


class TestLineRule:
    """``JsonlDecoder`` and ``iter_jsonl_handle`` share one line rule.

    The reference below is the rule both readers used to spell out with
    :func:`json.loads` on every line: strip, skip blank lines, parse.  Both
    readers must give its operations (every field), control frames and
    errors (type, message and line number), wherever a transport cuts the
    bytes.
    """

    OP = '{"op_type": "write", "key": "k", "value": "v%d", "start": %d, "finish": %d.5}'
    GOOD = [
        OP % (0, 0, 0),
        "   " + OP % (1, 1, 1) + "   ",
        "\t" + OP % (2, 2, 2),
        OP % (3, 3, 3) + "\r",
        "",
        "   ",
        '{"op_type": "read", "key": "k", "value": NaN, "start": 4, "finish": 5}',
        '{"op_type": "read", "key": "k", "value": "é€", "start": 6, "finish": 7, "client": null}',
        "\x0c" + OP % (8, 8, 8) + "\xa0",
    ]
    BAD = {
        "bom": "\ufeff" + OP % (9, 9, 9),
        "two values": "{}{}",
        "null": "null",
        "malformed": '{"op_type": "read", ',
        "padded malformed": "   {bad",
        "not a record": '{"op_type": "read"}',
        "control frame": '{"type": "hello", "k": 2}',
    }
    FRAMES = [
        '{"type": "hello", "k": 2}',
        '  {"type": "end"}  ',
        '{"type": "x", "op_type": "read", "key": "k", "value": "v0", "start": 1, "finish": 2}',
    ]

    @staticmethod
    def reference(text, *, decoder, mixed=False):
        """(items, error) under the old per-line ``json.loads`` rule."""
        items = []
        for number, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(f"s:{number}: invalid JSON: {exc}") from exc
                if mixed and isinstance(record, dict) and "type" in record and "op_type" not in record:
                    items.append(record)
                    continue
                try:
                    items.append(operation_from_dict(record))
                except TraceFormatError as exc:
                    if not decoder:
                        raise
                    raise TraceFormatError(f"s:{number}: {exc}") from exc
            except TraceFormatError as exc:
                return items, (type(exc), str(exc))
        return items, None

    @staticmethod
    def fields(items):
        return [
            repr(item) if isinstance(item, dict) else repr(
                (item.op_type, item.key, item.value, item.start, item.finish,
                 item.client, item.weight)
            )
            for item in items
        ]

    def run_handle(self, data):
        items = []
        try:
            handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            for op in iter_jsonl_handle(handle, source="s"):
                items.append(op)
        except TraceFormatError as exc:
            return items, (type(exc), str(exc))
        return items, None

    def run_decoder(self, data, cut, mixed):
        decoder = JsonlDecoder(source="s", mixed=mixed)
        items = []
        try:
            items.extend(decoder.feed(data[:cut]))
            items.extend(decoder.feed(data[cut:]))
            items.extend(decoder.flush())
        except TraceFormatError as exc:
            return items, (type(exc), str(exc))
        return items, None

    def check(self, lines, *, mixed=False):
        text = "\n".join(lines) + "\n"
        data = text.encode("utf-8")
        want_items, want_error = self.reference(text, decoder=True, mixed=mixed)
        want = (self.fields(want_items), want_error)
        if not mixed:
            items, error = self.run_handle(data)
            handle_items, handle_error = self.reference(text, decoder=False)
            assert (self.fields(items), error) == (self.fields(handle_items), handle_error)
        for cut in range(len(data) + 1):
            items, error = self.run_decoder(data, cut, mixed)
            got = self.fields(items)
            # A failing feed() drops what it decoded before the bad line.
            expected = want[0][: len(got)] if error else want[0]
            assert (got, error) == (expected, want_error), f"cut at byte {cut}"
        return want

    def test_good_lines(self):
        items, error = self.check(self.GOOD)
        assert error is None and len(items) == 7

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_line(self, name):
        items, error = self.check(self.GOOD[:3] + [self.BAD[name]] + self.GOOD[:1])
        assert len(items) == 3 and error is not None
        assert error[1].startswith("s:4: "), error

    def test_mixed_mode_control_frames(self):
        lines = [self.GOOD[0], self.FRAMES[0], *self.GOOD[1:4], *self.FRAMES[1:], "null"]
        items, error = self.check(lines, mixed=True)
        assert [item.count("'type'") for item in items] == [0, 1, 0, 0, 0, 1, 0]
        assert error == (TraceFormatError, "s:8: malformed operation record: None")
