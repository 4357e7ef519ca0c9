"""End-to-end and per-layer benchmark of the survey engine, the analysis
ladder and the autograder.  Run ``python3 perfbench/run.py --help``."""
