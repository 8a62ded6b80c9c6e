#!/bin/sh
# docdrift: documentation drift gate (make drift-check, part of make ci).
#
# The docs cross-reference each other and the code six ways, and all rot
# silently:
#   1. "DESIGN.md §N" section references, sprinkled through markdown and
#      code comments, must point at a real "## N." heading in DESIGN.md.
#   2. Intra-repo markdown links — [text](RELATIVE/PATH) in *.md — must
#      point at files that exist (anchors and external URLs are out of
#      scope).
#   3. Every `make <target>` and every BENCH_PR<n>.json named in *.md must
#      be a target of the Makefile / a file that exists.
#   4. Every `pkg.Symbol` or `pkg.Type.Member` code span in *.md whose pkg
#      is a package under internal/ (or client) must name something `go doc`
#      finds there.
#   5. Every `Type.method` code span (an unexported method, which go doc
#      does not show) in the same files must match a method declaration
#      `func (r *Type) method(` in a non-test .go file under internal/,
#      client/ or cmd/.
#   6. Every `pkg.Symbol` or `pkg.Type.Member` in a // comment of a non-test
#      .go file under internal/, client/ or cmd/, whose pkg is a package
#      under internal/ (or client), must name something `go doc` finds
#      there; a plural that fails may pass as its singular (lock.Events).
# Renumbering a DESIGN.md section, moving a file, deleting a gate or a
# report, or removing or renaming a name now fails CI instead of leaving dead
# pointers for the next reader.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- check 1: DESIGN.md section references ---------------------------------
sections=$(grep -o '^## [0-9][0-9]*\.' DESIGN.md | grep -o '[0-9][0-9]*')
refs=$(grep -rhoI 'DESIGN\.md §[0-9][0-9]*' \
    --include='*.md' --include='*.go' --include='*.sh' . | grep -o '[0-9][0-9]*$' | sort -un)
for n in $refs; do
    if ! echo "$sections" | grep -qx "$n"; then
        echo "docdrift: references to DESIGN.md §$n but DESIGN.md has no '## $n.' heading:"
        grep -rnI "DESIGN\.md §$n" --include='*.md' --include='*.go' --include='*.sh' . | head -5
        fail=1
    fi
done

# --- check 2: intra-repo markdown links ------------------------------------
# SNIPPETS.md is exempt: it quotes exemplar code from other repositories
# verbatim, links and all — those links describe the source repo, not ours.
for md in *.md; do
    [ "$md" = SNIPPETS.md ] && continue
    links=$(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//') || continue
    for target in $links; do
        case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path=${target%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$path" ]; then
            echo "docdrift: $md links to $target but $path does not exist"
            fail=1
        fi
    done
done

# --- checks 3, 4 and 5: make targets, benchmark reports and Go names -------
# Exempt besides SNIPPETS.md: CHANGES.md and ROADMAP.md from "## Recent" on
# are history (they name what a PR removed), and ISSUE.md describes a change
# still to be made.
# Check 4 reads only spans that are exactly a qualified exported name
# (`lock.Options.Sinks`, not `lock.us_per_txn` — a metric — and not a call
# with arguments), and asks go doc once per distinct name. Check 5 skips a
# span that names a file (`EXPERIMENTS.md`).
symbols=
methods=
for md in *.md; do
    case "$md" in SNIPPETS.md|CHANGES.md|ISSUE.md) continue ;; esac
    if [ "$md" = ROADMAP.md ]; then
        text=$(sed '/^## Recent/,$d' "$md")
    else
        text=$(cat "$md")
    fi
    for t in $(echo "$text" | grep -o '`make [a-z][a-z0-9-]*' | sed 's/^`make //' | sort -u); do
        if ! grep -q "^$t:" Makefile; then
            echo "docdrift: $md names \`make $t\` but the Makefile has no such target"
            fail=1
        fi
    done
    for f in $(echo "$text" | grep -o 'BENCH_PR[0-9][0-9]*\.json' | sort -u); do
        if [ ! -e "$f" ]; then
            echo "docdrift: $md names $f but that file does not exist"
            fail=1
        fi
    done
    for s in $(echo "$text" | grep -oE '`[a-z]+\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?`' | tr -d '`' | sort -u); do
        pkg=${s%%.*}
        dir=internal/$pkg
        [ "$pkg" = client ] && dir=client
        [ -d "$dir" ] || continue
        case " $symbols " in *" $s "*) continue ;; esac
        symbols="$symbols $s"
        if ! ${GO:-go} doc "./$dir" "${s#*.}" >/dev/null 2>&1; then
            echo "docdrift: $md names \`$s\` but go doc ./$dir ${s#*.} finds nothing"
            fail=1
        fi
    done
    for s in $(echo "$text" | grep -oE '`[A-Z][A-Za-z0-9_]*\.[a-z][A-Za-z0-9_]*`' | tr -d '`' | sort -u); do
        [ -e "$s" ] && continue
        case " $methods " in *" $s "*) continue ;; esac
        methods="$methods $s"
        if ! grep -rqE --include='*.go' --exclude='*_test.go' \
            "^func \(([A-Za-z_][A-Za-z0-9_]* )?\*?${s%%.*}(\[[^]]*\])?\) ${s#*.}[[(]" internal client cmd; then
            echo "docdrift: $md names \`$s\` but no non-test file under internal/, client/ or cmd/ declares that method"
            fail=1
        fi
    done
done

# --- check 6: qualified names in Go comments --------------------------------
# The text after a line's first // is the comment; a name preceded by a dot
# (m.lock.Mode) is a field path, not a package-qualified name.
for s in $(grep -rhE --include='*.go' --exclude='*_test.go' '//' internal client cmd |
    awk '{ i = index($0, "//"); if (i) print substr($0, i + 2) }' |
    grep -oE '(^|[^A-Za-z0-9_.])[a-z]+\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?' |
    sed -E 's/^[^a-z]//' | sort -u); do
    pkg=${s%%.*}
    dir=internal/$pkg
    [ "$pkg" = client ] && dir=client
    [ -d "$dir" ] || continue
    name=${s#*.}
    ${GO:-go} doc "./$dir" "$name" >/dev/null 2>&1 && continue
    case "$name" in
    *s) ${GO:-go} doc "./$dir" "${name%s}" >/dev/null 2>&1 && continue ;;
    esac
    echo "docdrift: a Go comment names \`$s\` but go doc ./$dir $name finds nothing:"
    grep -rnF --include='*.go' --exclude='*_test.go' "$s" internal client cmd | head -5
    fail=1
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docdrift: DESIGN.md § references, markdown links, make targets, BENCH_PR files, Go names, methods and names in Go comments resolve"
