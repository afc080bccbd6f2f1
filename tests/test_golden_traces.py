"""Byte pin for the neural loop at seed 2, a run no other test pins.

C9 pins the linear exact golden; ``test_trace_matrix.py`` pins the sampled
linear critic and the neural loop at seeds 0 and 1 by sha256.
"""

from pathlib import Path

from sstac import chain2, run_neural_ac

DATA = Path(__file__).parent / "data"


def test_neural_trace_matches_golden_bytes():
    trace = run_neural_ac(chain2(), 8, 2, 3, N_a=20, N_c=20, seed=2)
    assert trace.to_csv_text() == (DATA / "golden_neural_chain2" / "trace.csv").read_text()
