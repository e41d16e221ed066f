"""Check that an app trace draws what the JSON report says.

usage: python3 trace_matches_report.py <apptrace.json> <report.json>

Every container-lane slice named after a container component
(acquisition, localization, launching, nm_queue) must last exactly that
container's value in the report, and every reported value must have its
slice unless a guard of the trace drops it: an interval whose end was
logged before its start reads 0 in the report and is not drawn, and
nm_queue is not drawn when it would end after launching does.
"""
import json
import sys

COMPONENTS = ('acquisition', 'localization', 'launching', 'nm_queue')

trace_path, report_path = sys.argv[1:3]
drawn = {}
for e in json.load(open(trace_path))['traceEvents']:
    cid = e.get('args', {}).get('cid')
    if e.get('ph') == 'X' and cid and e['name'] in COMPONENTS:
        assert (cid, e['name']) not in drawn, f'two {e["name"]} slices for {cid}'
        drawn[cid, e['name']] = int(e['args']['dur_ms'])

slices = len(drawn)
guarded = retried = no_first_line = 0
for app in json.load(open(report_path))['applications']:
    attempts = {c['cid'].split('_')[3] for c in app['containers']}
    retried += len(attempts) > 1
    for c in app['containers']:
        no_first_line += c['launching_ms'] is None and c['localization_ms'] is not None
        for name in COMPONENTS:
            value, slice_ms = c[name + '_ms'], drawn.pop((c['cid'], name), None)
            where = f"{c['cid']} {name}: slice {slice_ms} ms, report {value} ms"
            if slice_ms is not None:
                assert slice_ms == value, where
            elif value is not None:
                launching = c['launching_ms']
                assert value == 0 or (name == 'nm_queue' and launching is not None
                                      and value > launching), where
                guarded += 1
assert not drawn, f'slices of containers the report does not list: {sorted(drawn)[:5]}'
print(f'{report_path}: {slices} container slices equal the report, '
      f'{guarded} reported values undrawn by a guard; {retried} apps with a retried AM, '
      f'{no_first_line} localized containers with no first log line')
