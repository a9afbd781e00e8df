"""Resolution limits of the `link tau` quadrature, in a module without
numpy so that the command line can state them without loading it."""

DEFAULT_RESOLUTION = 7

# Largest resolution the command line accepts: hopf_grid(32) has 131,072
# nodes, and the node arrays grow with the cube of the resolution.
MAX_RESOLUTION = 32
