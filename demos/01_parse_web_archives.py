"""
Streaming WARC and ARC containers
=================================

Build two tiny archive containers in memory, stream them back, and pull
hyperlinks plus anchor texts out of the captured payloads.
"""
import io

from archive_rank.ingest import (
    ParseStats,
    content_links,
    extract_links,
    parse_arc_stream,
    parse_warc_stream,
)
from archive_rank.synthetic import arc_file_bytes, arc_record_bytes, warc_file_bytes, warc_record_bytes

# a WARC file with two captures and one crawl-bookkeeping record
html = b'<a href="/thema/angela-merkel">Angela  Merkel</a> <img src="logo.png">'
warc = warc_file_bytes(
    [
        warc_record_bytes("http://zeitung.de/politik", "2009-03-02T11:00:00Z", html),
        warc_record_bytes("http://zeitung.de/", "2009-03-02T11:05:00Z", b"<html>startseite</html>"),
        warc_record_bytes("http://zeitung.de/robots", "2009-03-02T11:06:00Z", b"", warc_type="metadata"),
    ]
)

stats = ParseStats()
records = list(parse_warc_stream(io.BytesIO(warc), stats))
print(f"WARC: {stats.emitted} responses, {stats.skipped} skipped, {stats.corrupt} corrupt")
for record in records:
    print(f"  {record.target_uri}  t={record.capture_time}  status={record.http_status}")

# link extraction keeps all fourteen tag patterns; content links are the
# <a> hyperlinks, the only ones carrying anchor text, with both ends
# resolved to core URLs and registrable domains (ingest writes them to
# content_links.tsv, which graph, index and stats read)
extraction = extract_links(html, records[0].target_uri, records[0].capture_time)
print("\nextracted links:")
for item in extraction.links:
    print(f"  {item.tag_pattern:10s} -> {item.target_url}  anchor={item.anchor_text!r}")
content = content_links(extraction.links)
print(f"content links: {len(content)} of {len(extraction.links)}")
for item in content:
    print(f"  {item.source} ({item.source_domain}) -> {item.target} ({item.target_domain})  anchor={item.anchor_text!r}")

# the older ARC format: one header line per record
arc = arc_file_bytes(
    [arc_record_bytes("http://a.de/", "20051122093000", b"<html><a href='/x'>hier</a></html>")]
)
arc_stats = ParseStats()
for record in parse_arc_stream(io.BytesIO(arc), arc_stats):
    print(f"\nARC: {record.target_uri} captured at epoch {record.capture_time}")
print(f"ARC totals: {arc_stats.emitted} emitted, {arc_stats.skipped} skipped (filedesc)")
