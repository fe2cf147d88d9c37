"""Reporting: text renderings of the paper's tables and figures."""
