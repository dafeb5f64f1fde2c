"""Control-token driven retrieval planning over a BM25 passage index."""

__version__ = "0.1.0"
