#!/bin/sh
# Code lines per source file: for each crates/*/src/**/*.rs, the lines that
# are neither blank nor `//` comments, up to the file's `#[cfg(test)] mod`
# (or `pub(crate) mod`);
# then a subtotal per crate, then the total. `tools/loc.sh [checkout]`
# counts another checkout (the parent commit, say) with the same rule.
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    # Close the file just read; close its crate too unless `next_file` is in it.
    function flush(next_file) {
        if (!file) return
        printf "%6d %s\n", n, file
        in_crate += n; total += n
        if (index(next_file, crate "/") != 1) { printf "%6d %s total\n", in_crate, crate; in_crate = 0 }
    }
    FNR == 1 { flush(FILENAME); file = FILENAME; split(file, p, "/"); crate = p[1] "/" p[2]; n = 0; tests = 0 }
    held { held = 0; if ($1 == "mod" || $2 == "mod") tests = 1; else n++ }
    tests || /^[ \t]*$/ || /^[ \t]*\/\// { next }
    /^[ \t]*#\[cfg\(test\)\]$/ { held = 1; next }
    { n++ }
    END { flush(""); printf "%6d total\n", total }'
