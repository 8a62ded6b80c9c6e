#!/bin/sh
# doclint: godoc hygiene gate (make doc-lint, part of make ci).
#
# Three checks:
#   1. Every package in the module carries a package doc comment —
#      "// Package <name> ..." for libraries, "// Command <name> ..." for
#      main packages — so `go doc` has something to say about every unit
#      of the codebase.
#   2. Every exported top-level declaration in the public API packages
#      (client, and the wire package third-party implementors read) has a
#      doc comment on the line above it. Internal packages are exempt from
#      the per-symbol rule; the public surface is not.
#   3. No "Deprecated:" marker survives in internal/lock: the id-keyed
#      AcquireID / AcquireBatchID with AcquireOption is the acquire surface
#      (the name-taking AcquireCtx / AcquireBatch are Intern plus those), and
#      this check keeps the legacy wrappers from creeping back.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- check 1: package docs -------------------------------------------------
for dir in $(go list -f '{{.Dir}}' ./...); do
    rel=${dir#"$(pwd)"/}
    [ "$rel" = "$dir" ] && rel=.
    name=$(go list -f '{{.Name}}' "./$rel")
    want="Package $name"
    if [ "$name" = main ]; then
        want="Command "
    fi
    if ! grep -l "^// $want" "$dir"/*.go >/dev/null 2>&1; then
        echo "doclint: $rel: no package doc comment (want a '// $want...' block)"
        fail=1
    fi
done

# --- check 2: exported symbols in public packages --------------------------
for f in client/*.go internal/wire/*.go; do
    case "$f" in *_test.go) continue ;; esac
    awk -v file="$f" '
        /^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
            if (prev !~ /^\/\//) {
                printf "doclint: %s:%d: exported %s has no doc comment\n", file, NR, $0
                bad = 1
            }
        }
        { prev = $0 }
        END { exit bad }
    ' "$f" || fail=1
done

# --- check 3: no deprecated wrappers in internal/lock ----------------------
if grep -rn "Deprecated:" internal/lock --include="*.go"; then
    echo "doclint: deprecated wrappers found in internal/lock"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "doclint: every package documented; public API symbols documented; internal/lock is wrapper-free"
