#!/usr/bin/env bash
# Check that `assess` and `compare` import none of scipy.fft, scipy.special, scipy.io,
# scipy.sparse, scipy.signal and scipy.stats.
#
# Usage: bash scripts/import_guard.sh OUT
#
# pocketfft, the Matrix Market reader and lfilter's filter are loaded from their files; a scipy
# that moved or changed one makes the run import its public module instead.  Runs the
# `motioncomfort` console script on a 60 s synthetic trace written under OUT, and exits 1 naming
# the verb whose import times are missing or list one of the modules above.
set -euo pipefail
out=${1:?usage: import_guard.sh OUT}
motioncomfort synth --duration 60 --out "$out"
for verb in "assess --model EXP" "compare --models EXP,NHM"; do
  PYTHONPROFILEIMPORTTIME=1 motioncomfort $verb --trace "$out/trace.csv" --out "$out" 2> "$out/times.txt"
  grep -Eq '\|\s+motioncomfort\.cli$' "$out/times.txt" || { echo "no import times for $verb"; exit 1; }
  if grep -E '\|\s+scipy\.(fft|special|io|sparse|signal|stats)(\.|$)' "$out/times.txt"; then
    echo "$verb imported the modules above"; exit 1
  fi
done
