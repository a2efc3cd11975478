"""Estimation of income inequality from grouped data (Lorenz ordinates)
with the GB2 family of distributions.  The modules are the API, and
``import gb2fit`` loads none of them."""

__version__ = "0.1.0"
