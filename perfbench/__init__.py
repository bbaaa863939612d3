"""Benchmark of the ssmprune testbed; see README.md."""
