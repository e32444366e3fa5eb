#!/usr/bin/env bash
# Lint: split-complex multiply-accumulate loops live in
# src/linalg/kernels and nowhere else.
#
# The compose evaluator and the statevector simulator route their
# complex MAC inner loops through src/linalg/kernels: the three-slot
# ComputeBackend table (apply2x2Rows, apply2x2Cols, svApply1q: scalar
# reference loops plus one vector source that the SIMD backends
# instantiate) and the scalar-only functions beside it (contractW,
# contractQubit, svApply2q), so each loop has one home.
# The dense oracle those loops are checked against
# (src/verify: overlapTrace of Ansatz::unitary) is Matrix arithmetic
# over std::complex and shares no loop with them. This script fails CI
# if a split-complex product (`...Re[i] * ...Im[j]` and friends) is
# reintroduced outside the kernel directory, the oracle's home
# included.
#
# Usage: tools/check_kernel_dedup.sh   (from anywhere; exits non-zero
# on a violation and prints the offending lines)
set -euo pipefail
cd "$(dirname "$0")/.."

# A split-complex MAC term: an re/im-suffixed indexed load multiplied
# by another re/im-suffixed indexed load, e.g. `aRe[k] * bIm[j]`,
# `mre[r * d + k] * u3Im_[q][1]`.
pattern='[A-Za-z_]*[Rr]e_?\[[^]]+\]\s*\*\s*[A-Za-z_]*([Rr]e|[Ii]m)_?\[|[A-Za-z_]*[Ii]m_?\[[^]]+\]\s*\*\s*[A-Za-z_]*([Rr]e|[Ii]m)_?\['

# Positive control: the kernel layer itself must match, or the pattern
# has rotted and the lint is vacuous.
if ! grep -rEq "$pattern" src/linalg/kernels --include='*.cpp' \
    --include='*.hpp'; then
  echo "check_kernel_dedup: pattern no longer matches the kernel" >&2
  echo "layer itself; the lint regex needs updating" >&2
  exit 2
fi

matches=$(grep -rEn "$pattern" src/compose src/sim src/linalg src/verify \
  --include='*.cpp' --include='*.hpp' \
  | grep -v '^src/linalg/kernels/' || true)

if [ -n "$matches" ]; then
  echo "Hand-rolled split-complex MAC outside src/linalg/kernels:" >&2
  echo "$matches" >&2
  echo >&2
  echo "Route a hot loop through kernels::active(); build an" >&2
  echo "oracle from Matrix arithmetic instead." >&2
  exit 1
fi
echo "OK: no hand-rolled split-complex MAC loops outside" \
  "src/linalg/kernels"
