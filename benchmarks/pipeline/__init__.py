"""The pipeline benchmark: one dataset through the whole server side.

``python3 benchmarks/pipeline/run.py`` (or ``python -m
benchmarks.pipeline.run``) drives generate -> upload payload -> parse
-> dedup/admit -> rollup -> WAL -> flush -> segment -> checkpoint ->
recover -> cluster merge -> snapshot -> panel through the layers'
public functions, from one process.  ``BENCHMARK.json`` at the repo
root names the workloads and metrics; ``README.md`` here explains why
each exists.
"""
