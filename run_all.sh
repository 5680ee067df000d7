#!/usr/bin/env bash
# Fully-automated reproduction workflow (the artifact's run_all.sh, Appendix D).
#
#   ./run_all.sh
#
# 1. installs the package,
# 2. runs the test suite,
# 3. populates the synthesis store (all benchmarks; the expensive step),
# 4. writes EXPERIMENTS.md: Tables I-II, Figs. 4-8, the ablations, the
#    cost models and the discovery-vs-application split, paper vs measured,
#    with the paper's claims checked (exits non-zero if one is violated).
#
# Outputs land in results/synthesis.json and EXPERIMENTS.md.  Keep the
# machine otherwise idle: step 3 profiles NumPy ops for the measured cost
# model and step 4 times every kernel once.

set -euo pipefail
cd "$(dirname "$0")"

echo "== 1/4 install =="
pip install -e . 2>/dev/null || python setup.py develop

echo "== 2/4 tests =="
python -m pytest tests/ -q

echo "== 3/4 synthesis (cached in results/synthesis.json) =="
python scripts/populate_store.py --config default
python scripts/populate_store.py --config simplification_only
python scripts/populate_store.py --config bottom_up --timeout 30

echo "== 4/4 experiment report =="
python scripts/generate_experiments.py

echo "done: see EXPERIMENTS.md"
