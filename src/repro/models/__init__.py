"""In-database-style models trained from cofactor Triples."""
from .linreg import RidgeModel, train_ridge
from .stochastic import predict_stochastic_expr, train_stochastic
from .lda import LDAModel, train_lda

__all__ = [
    "RidgeModel",
    "train_ridge",
    "train_stochastic",
    "predict_stochastic_expr",
    "LDAModel",
    "train_lda",
]
