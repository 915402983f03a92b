"""Committed trace logs still read, and re-serialize byte for byte.

Replaying a log written by the same commit cannot see the log format
drift; these two can.  Both were written by an earlier build and
together cover every record kind:

    repro fleet --deployments 2 --days 3 --deadline 10 --input-gb 2 \\
        --failure-rate 0.08 --seed 9 --start-hour 36 \\
        --trace-log golden_fleet_trace.jsonl
    repro deploy --stream --input-gb 4 --deadline 3 \\
        --trace-log golden_deploy_trace.jsonl
"""

import json
from pathlib import Path

import pytest

from repro.obs.records import RECORD_KINDS, TraceRecordV1, decode_payload
from repro.obs.summary import summarize_records
from repro.obs.trace import read_trace

HERE = Path(__file__).parent
LOGS = [HERE / "golden_fleet_trace.jsonl", HERE / "golden_deploy_trace.jsonl"]


@pytest.mark.parametrize("path", LOGS, ids=lambda p: p.stem)
def test_every_line_round_trips_byte_identically(path):
    for line in path.read_text().splitlines():
        record = TraceRecordV1.decode(line)
        assert record.encode() == line
        payload = decode_payload(record)
        assert json.dumps(payload.to_dict(), sort_keys=True) == json.dumps(
            record.payload, sort_keys=True
        )


def test_the_logs_cover_every_record_kind():
    kinds = {record.kind for path in LOGS for record in read_trace(path)}
    assert kinds == set(RECORD_KINDS)


@pytest.mark.parametrize("path", LOGS, ids=lambda p: p.stem)
def test_the_logs_summarize(path):
    records = read_trace(path)
    counters = summarize_records(records)["counters"]
    for kind in {record.kind for record in records}:
        assert counters[f"records.{kind}"] == sum(
            record.kind == kind for record in records
        )
