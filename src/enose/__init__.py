"""Gas-sensor-array analysis toolkit.

Simulates a 4-channel metal-oxide sensor array, ingests raw ADC frame
streams, and runs the full pipeline: baseline correction, smoothing,
PCA / kernel-PCA feature reduction, SVM gas identification and MLP
concentration regression, plus a reproducible experiment bench.

Importing the package pins BLAS to one thread, whatever the environment
asks for: at two threads LAPACK's `eigh` rounds the KPCA Gram matrix's
eigenvectors differently, and an artifact's bytes must not depend on the
machine.  The pin acts only if numpy is not loaded yet, as under `python
-m enose`; a library caller who imported numpy first keeps its count.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
