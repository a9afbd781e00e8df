"""Resolution limits of the `link tau` quadrature, in a module without
numpy so that the command line can state them without loading it."""

DEFAULT_RESOLUTION = 7

# Largest resolution the command line accepts: the tau fibers then take
# 64 + 2,048 nodes and 4 * 32^3 = 131,072 node pairs, which the pair kernel
# sums in milliseconds.
MAX_RESOLUTION = 32
