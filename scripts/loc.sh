#!/usr/bin/env bash
# Counts Rust lines per directory: total, and non-test — a file counted up to
# the `#[cfg(test)]` line that opens its trailing `mod` (a file with none is
# all non-test). The one number ROADMAP's "down by a third" exit tests read.
#
#   scripts/loc.sh [dir ...]      # default: each crate, each vendored crate,
#                                 # examples, src — then their sum
#
# Paths are relative to the repository root; run it on another checkout by
# calling that checkout's copy.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- crates/*/ vendor/*/ examples src
fi

printf '%-22s %8s %9s\n' directory total non-test
sum_total=0
sum_code=0
for dir in "$@"; do
    dir="${dir%/}"
    read -r total code < <(
        find "$dir" -name '*.rs' -not -path '*/target/*' -print0 | sort -z |
            xargs -0 -r awk '
                function flush() { total += n; code += cut ? cut - 1 : n }
                FNR == 1 && NR > 1 { flush() }
                FNR == 1 { cut = 0; cfg = 0 }
                { n = FNR }
                # `#[cfg(test)]` directly above `mod name {` opens the
                # trailing test module: the file counts up to the attribute.
                !cut && cfg && /^(pub(\([a-z]+\))? )?mod [a-z_]+ \{$/ { cut = FNR - 1 }
                { cfg = ($0 == "#[cfg(test)]") }
                END { if (NR) flush(); print total + 0, code + 0 }'
    ) || { total=0; code=0; }
    printf '%-22s %8d %9d\n' "$dir" "$total" "$code"
    sum_total=$((sum_total + total))
    sum_code=$((sum_code + code))
done
printf '%-22s %8d %9d\n' total "$sum_total" "$sum_code"
