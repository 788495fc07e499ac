"""In-database-style models trained from cofactor Triples."""
from .linreg import RidgeModel, train_ridge
from .stochastic import train_stochastic
from .lda import LDAModel, train_lda

__all__ = [
    "RidgeModel",
    "train_ridge",
    "train_stochastic",
    "LDAModel",
    "train_lda",
]
