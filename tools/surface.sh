#!/bin/sh
# Public surface per crate: over each crates/*/src/**/*.rs, up to the
# file's `#[cfg(test)] mod` (the same cut as tools/loc.sh) and skipping
# `//` comment lines, the number of `pub fn`s (`pub const fn` and the
# like included, `pub(crate) fn` not) and of named `pub` struct fields
# (tuple-struct fields are not seen); then the totals.
# `tools/surface.sh [checkout]` counts another checkout (the parent
# commit, say) with the same rule.
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates/*/src -name '*.rs' | sort | xargs awk '
    # Close the crate just read unless `next_file` is in it.
    function flush(next_file) {
        if (!crate || index(next_file, crate "/") == 1) return
        printf "%6d pub fn %6d pub fields  %s\n", fns, fields, crate
        all_fns += fns; all_fields += fields; fns = 0; fields = 0
    }
    FNR == 1 { flush(FILENAME); split(FILENAME, p, "/"); crate = p[1] "/" p[2]; tests = 0 }
    held { held = 0; if ($1 == "mod" || $2 == "mod") tests = 1 }
    tests || /^[ \t]*\/\// { next }
    /^[ \t]*#\[cfg\(test\)\]$/ { held = 1; next }
    /^[ \t]*pub ((const|unsafe|async) )*fn / { fns++ }
    /^[ \t]+pub [a-z_][a-z0-9_]*:/ { fields++ }
    END { flush(""); printf "%6d pub fn %6d pub fields  total\n", all_fns, all_fields }'
