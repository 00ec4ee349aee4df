"""Match college students with STEM role models from social-media data.

The package mirrors the end-to-end flow: ingest Twitter-shaped student
records and LinkedIn-shaped candidate records, weakly label and classify
students as college students, filter candidates down to STEM role models,
resolve demographic and interest profiles, rank role models per student
by a fuzzy attribute-similarity score, and deliver one static HTML page
per student.  A seeded synthetic generator supports desk-scale runs.

Names are imported from the modules, e.g.
``from stem_match.pipeline import PipelineConfig, run_pipeline``;
importing the package itself loads no module, so each caller pays only
for the modules it imports.
"""
