"""Rainbow star toolkit for collections of directed graphs on a shared vertex set.

A collection assigns one simple digraph per color index.  A rainbow star is a
directed star (p in-edges and q out-edges at a center vertex) whose p+q edges
come from pairwise distinct colors of the collection.  The package provides:

- an immutable data model with a plain-text interchange format (`model`),
- detection of rainbow stars, with reference detectors to cross-check it (`detector`),
- extremal construction families that avoid a given star (`constructions`),
- closed-form bounds, thresholds, and asymptotic coefficients (`bounds`),
- exact optima via branch-and-bound and a cover-structure oracle (`oracle`),
- a command line front end and verification suites (`cli`, `verify`).
"""

__version__ = "0.1.0"
