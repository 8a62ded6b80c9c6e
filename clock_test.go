package colock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// wantClockReads pins the number of time.Now() and time.Since( calls in the
// non-test files under internal/ and client/ (cmd/ and bench/ time whole
// runs and are exempt). A clock read costs tens of nanoseconds, and the
// lock path's tracing reads it once per call boundary; a change that adds
// one justifies it, updates this pin and says so in CHANGES.md.
const wantClockReads = 38

// wantTestSleeps pins the number of time.Sleep( calls in the test files
// outside bench/. A sleep makes a test slow and its outcome a matter of
// scheduling; tests order goroutines with notifications (lock.WithParkNotify)
// instead. The pin only moves down, and a change that moves it says so in
// CHANGES.md.
const wantTestSleeps = 50

func TestClockReadCount(t *testing.T) {
	var reads []string
	for _, root := range []string{"internal", "client"} {
		reads = append(reads, calls(t, root, false, timeCall("Now", "Since"))...)
	}
	if len(reads) != wantClockReads {
		t.Errorf("clock reads = %d, want %d:\n  %s", len(reads), wantClockReads, strings.Join(reads, "\n  "))
	}
}

func TestTestSleepCount(t *testing.T) {
	sleeps := calls(t, ".", true, timeCall("Sleep"))
	if len(sleeps) != wantTestSleeps {
		t.Errorf("test sleeps = %d, want %d:\n  %s", len(sleeps), wantTestSleeps, strings.Join(sleeps, "\n  "))
	}
}

// timeCall matches the time.<name>( calls for the given names.
func timeCall(names ...string) func(*ast.SelectorExpr) bool {
	return func(sel *ast.SelectorExpr) bool {
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "time" && slices.Contains(names, sel.Sel.Name)
	}
}

// calls returns the sorted positions of the calls through a selector that
// match in the Go files under root, the test files if tests is set and the
// others if not. bench/ and hidden directories are skipped.
func calls(t *testing.T, root string, tests bool, match func(*ast.SelectorExpr) bool) []string {
	t.Helper()
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && match(sel) {
				found = append(found, fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	return found
}
