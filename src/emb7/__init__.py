"""Calculable classification of embeddings of closed orientable 4-manifolds
with torsion-free H1 into 7-space, modulo connected sum with knotted
4-spheres, plus a numerical linking-number verifier for the twisted torus
family on S^1 x S^3.

The package re-exports nothing: callers import its submodules."""

__version__ = "0.1.0"
