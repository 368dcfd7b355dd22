"""Robust binary classification by median-of-means (MOM) risk minimization.

The package trains linear and kernel classifiers by replacing the empirical
mean of the loss with a median-of-means estimate: at every descent step the
dataset is split into K equal blocks, the block whose mean loss is the median
is located, and the gradient step uses that block only.  Outliers land in the
median block very rarely, so corrupted samples stop steering the descent and
can afterwards be ranked by how often they were selected.

All randomness flows through numpy's PCG64 generator
(``numpy.random.default_rng``); any operation seeded with the same 64-bit
integer reproduces its output bit for bit on the same numpy and scipy
builds.  Other builds may round BLAS products differently: every training
Gram of both kernel engines, one scipy BLAS ``dsyrk``, depends on them.  The
logistic function, ``losses.expit``, is computed with numpy's ``exp``, so its
bits follow numpy's build and the CPU's SIMD support.

Each name imports from its module (``momclf.data``, ``momclf.optim``, ...),
and the package itself exports none.  Importing a module loads numpy and
the package modules it uses, no other library; ``scipy.linalg`` loads the
first time a kernel method runs.
"""
