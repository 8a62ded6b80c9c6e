package colock_test

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// TestNamesStayAtBenchBoundary: the lock manager's name-taking acquires,
// AcquireCtx and AcquireBatch, exist for bench/'s lock cut, which replays
// names. Every other caller outside internal/lock locks by id — the
// protocol's chain or Intern plus an id method — so no non-test file calls
// them.
func TestNamesStayAtBenchBoundary(t *testing.T) {
	named := func(sel *ast.SelectorExpr) bool {
		return sel.Sel.Name == "AcquireCtx" || sel.Sel.Name == "AcquireBatch"
	}
	lockPkg := filepath.Join("internal", "lock") + string(filepath.Separator)
	for _, at := range calls(t, ".", false, named) {
		if !strings.HasPrefix(at, lockPkg) {
			t.Errorf("%s: acquire by name outside internal/lock and bench/: lock through the protocol, or Intern and an id method", at)
		}
	}
}
