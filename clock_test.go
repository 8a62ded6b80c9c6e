package colock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

func TestClockReadCount(t *testing.T) {
	var reads []string
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "client"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
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
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" {
					reads = append(reads, fset.Position(call.Pos()).String())
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(reads) != wantClockReads {
		sort.Strings(reads)
		t.Errorf("clock reads = %d, want %d:\n  %s", len(reads), wantClockReads, strings.Join(reads, "\n  "))
	}
}
