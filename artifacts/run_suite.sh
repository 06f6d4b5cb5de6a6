#!/bin/bash
# Regenerates the full-step CSVs (see README) from the repository root,
# wherever the checkout lives.
cd "$(dirname "$0")/.." || exit 1
BIN=target/release/repro
: > artifacts/suite.log
for cmd in fig3 fig5 fig6 fig7 fig8 fig9 spectra decode baselines recovery bert; do
  echo "### RUNNING $cmd" >> artifacts/suite.log
  $BIN $cmd --samples 100 >> artifacts/suite.log 2>&1
done
echo SUITE_COMPLETE >> artifacts/suite.log
