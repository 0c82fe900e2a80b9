"""A from-scratch ML substrate (numpy only) for the reproduction.

The paper evaluates ten classifiers.  This subpackage implements all of
them without sklearn:

- :class:`~repro.ml.tree.DecisionTreeClassifier` — CART with gini,
  information-gain and gain-ratio split criteria and rpart-style
  ``minsplit``/``cp`` hyper-parameters.
- :class:`~repro.ml.svm.KernelSVC` — kernel SVM trained with SMO
  (linear, polynomial and RBF kernels).
- :class:`~repro.ml.neural.MLPClassifier` — multi-layer perceptron with
  ReLU activations, L2 regularisation and the Adam optimizer.
- :class:`~repro.ml.naive_bayes.CategoricalNB` — categorical Naive Bayes
  with Laplace smoothing.
- :class:`~repro.ml.linear.L1LogisticRegression` — logistic regression
  with L1 regularisation solved by proximal gradient (FISTA).
- :class:`~repro.ml.neighbors.KNeighborsClassifier` — k-nearest
  neighbours (k = 1 reproduces the paper's "braindead" 1-NN).

Model selection follows the paper's protocol: a dedicated validation
split drives :class:`~repro.ml.selection.GridSearch` and
:class:`~repro.ml.selection.BackwardSelection`.  The
:mod:`~repro.ml.bias_variance` module implements the Domingos (2000)
unified bias-variance decomposition used for the net-variance plots.

All estimators consume a :class:`~repro.ml.encoding.CategoricalMatrix`
(integer-coded categorical features with closed domains).  Numeric
models one-hot encode internally through the implicit execution engine
(:mod:`repro.ml.sparse`): gathers, scatter-adds and code-equality counts
stand in for every product against the one-hot matrix, which is never
materialised unless a model is given ``engine="dense"``.
"""

from repro.ml.base import Estimator, check_fitted
from repro.ml.encoding import CategoricalMatrix, one_hot
from repro.ml.linear import L1LogisticRegression
from repro.ml.metrics import accuracy, confusion_counts, zero_one_error
from repro.ml.naive_bayes import CategoricalNB
from repro.ml.neighbors import KNeighborsClassifier
from repro.ml.neural import MLPClassifier
from repro.ml.preprocessing import Discretizer, binarize_ordinal
from repro.ml.selection import BackwardSelection, GridSearch
from repro.ml.svm import KernelSVC
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "BackwardSelection",
    "CategoricalMatrix",
    "CategoricalNB",
    "DecisionTreeClassifier",
    "Discretizer",
    "Estimator",
    "GridSearch",
    "KNeighborsClassifier",
    "KernelSVC",
    "L1LogisticRegression",
    "MLPClassifier",
    "accuracy",
    "binarize_ordinal",
    "check_fitted",
    "confusion_counts",
    "one_hot",
    "zero_one_error",
]
