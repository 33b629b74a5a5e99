"""Field-normalized research productivity scores, peer-review ratings, and ranking comparison."""

__version__ = "0.1.0"
