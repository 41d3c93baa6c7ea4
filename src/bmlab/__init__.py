"""Broad-match sponsored-search auction lab.

Simulates probabilistic and set-based broad-match GSP auctions, finds
pure equilibria on small instances, computes reserve prices from value
distributions, and checks measured welfare/revenue ratios against their
theoretical bounds.
"""

__version__ = "0.1.0"
