"""Retrieval-augmented extraction of emotional-causality sextuplets from
long dialogues, causal-graph scoring, and evaluation against gold links.

Typical flow: parse or generate a dialogue, index it into a sliding-window
knowledge base, extract sextuplets with retrieval-augmented prompts, score
ordered event pairs into a weighted directed graph, then evaluate the graph
against gold causal links.

Importing the package loads none of its modules; each name lives only in
the module that defines it. The stages live in ingest, kb (index),
extraction, graph and metrics (eval); pipeline.run_pipeline runs them all,
cli is the `emocause` command and model holds the records and JSON readers.
"""

__version__ = "0.1.0"
