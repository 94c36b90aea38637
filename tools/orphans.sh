#!/bin/sh
# Public functions nothing calls: for each `pub fn` of crates/*/src/**/*.rs
# ahead of the file's `#[cfg(test)] mod` (the same cut as tools/loc.sh),
# print `crate file name` when no non-comment line of any .rs file calls it
# -- `.name(`, a `::name` path, or, for a free function (a `pub fn` that is
# not indented), bare `name(` -- outside that crate's own test modules and
# `tests/` directory. Names are matched as text, so a method that shares its
# name with one that is called is not reported. Report only: what is kept on
# purpose stays listed. The last line is `N total`, the number listed.
# `tools/orphans.sh [checkout]` reads another checkout.
cd "${1:-$(dirname "$0")/..}" || exit 1
find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
    FNR == 1 {
        split(FILENAME, p, "/")
        crate = (p[1] == "crates") ? p[1] "/" p[2] : ""
        tests = (crate != "" && p[3] == "tests")
        defines = (crate != "" && p[3] == "src")
        held = 0
    }
    held { held = 0; if ($1 == "mod" || $2 == "mod") { tests = 1; defines = 0 } }
    /^[ \t]*\/\// { next }
    /^[ \t]*#\[cfg\(test\)\]$/ { held = 1; next }
    {
        line = $0
        if (defines && match(line, /^[ \t]*pub ((const|unsafe|async) )*fn [A-Za-z_0-9]+/)) {
            name = substr(line, RSTART, RLENGTH); sub(/.* /, "", name)
            fns++; fn_crate[fns] = crate; fn_file[fns] = FILENAME; fn_name[fns] = name
            fn_free[fns] = (line ~ /^pub /)
        }
        # Every identifier of the line, with what stands before and after it.
        at = 1
        while (match(substr(line, at), /[A-Za-z_][A-Za-z_0-9]*/)) {
            start = at + RSTART - 1; len = RLENGTH; at = start + len
            name = substr(line, start, len)
            before = substr(line, 1, start - 1); after = substr(line, at)
            if (before ~ /::$/) kind = "path"
            else if (after !~ /^(::<[^(]*>)?\(/ || before ~ /fn $/) continue
            else kind = (before ~ /\.$/) ? "path" : "bare"
            seen[name, kind]++
            if (tests) own_tests[crate, name, kind]++
        }
    }
    END {
        for (i = 1; i <= fns; i++) {
            c = fn_crate[i]; f = fn_name[i]
            calls = seen[f, "path"] - own_tests[c, f, "path"]
            if (fn_free[i]) calls += seen[f, "bare"] - own_tests[c, f, "bare"]
            if (calls == 0) { print c, fn_file[i], f; orphans++ }
        }
        printf "%6d total\n", orphans
    }'
