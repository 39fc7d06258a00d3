"""From-scratch distributed-style ML algorithms over :class:`Dataset`.

Naive Bayes, the decision tree and k-means aggregate per-partition
statistics and combine them centrally — the MLlib execution shape.  The
linear trainers (SVM, logistic, linear regression) stack the partitions
once and take one gradient (or one Gram matrix) over every row, so their
weights do not depend on the partition layout.
"""

from repro.ml.algorithms.kmeans import KMeans, KMeansModel
from repro.ml.algorithms.linreg import LinearRegression, LinearRegressionModel
from repro.ml.algorithms.logistic import LogisticRegressionWithSGD, LogisticRegressionModel
from repro.ml.algorithms.naive_bayes import NaiveBayes, NaiveBayesModel
from repro.ml.algorithms.svm import SVMModel, SVMWithSGD
from repro.ml.algorithms.tree import DecisionTree, DecisionTreeModel

__all__ = [
    "DecisionTree",
    "DecisionTreeModel",
    "KMeans",
    "KMeansModel",
    "LinearRegression",
    "LinearRegressionModel",
    "LogisticRegressionModel",
    "LogisticRegressionWithSGD",
    "NaiveBayes",
    "NaiveBayesModel",
    "SVMModel",
    "SVMWithSGD",
]
