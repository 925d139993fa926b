"""Benchmark of the cosmo toolkit: training, few-shot decoding and curation."""
