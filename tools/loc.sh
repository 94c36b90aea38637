#!/bin/sh
# Code lines per source file: for each crates/*/src/**/*.rs, the lines that
# are neither blank nor `//` comments, up to the file's `#[cfg(test)] mod`
# (or `pub(crate) mod`);
# then the total. `tools/loc.sh [checkout]` counts another checkout (the
# parent commit, say) with the same rule.
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { if (file) printf "%6d %s\n", n, file; file = FILENAME; n = 0; tests = 0 }
    held { held = 0; if ($1 == "mod" || $2 == "mod") tests = 1; else { n++; total++ } }
    tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    /^[ \t]*#\[cfg\(test\)\]$/ { held = 1; next }
    { n++; total++ }
    END { printf "%6d %s\n%6d total\n", n, file, total }'
