"""Calculable classification of embeddings of closed orientable 4-manifolds
with torsion-free H1 into 7-space, modulo connected sum with knotted
4-spheres, plus a numerical linking-number verifier for the twisted torus
family on S^1 x S^3."""

from .exact import (AbelianGroupPresentation, IntMatrix, SNFResult,
                    coset_normal_form, smith_normal_form, solve_linear)
from .manifolds import ManifoldData, builtin, validate
from .invariants import (KGroup, base_lambda, compression_obstruction,
                         divisibility, enumerate_kappa, is_kappa_admissible,
                         is_symmetric_pair, k_group, lambda_adjoint,
                         regular_homotopy_equivalent, whitney_w)
from .classify import (EmbeddingClass, classes_equal, embedding_class,
                       enumerate_fiber, fiber_group, fiber_size)
from .moves import (Move, apply_move, decompose_symmetric_form,
                    net_lambda_effect, tau_compose, tau_equal,
                    tau_normal_form)

__version__ = "0.1.0"
