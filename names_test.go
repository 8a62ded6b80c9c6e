package colock_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
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

// TestOneAcquireRoutine: every acquisition is one run of the lock manager's
// acquire. Only it decides an immediate grant (tryGrant) or queues a waiter
// (entry.enqueue); the exported Acquire methods call no other Acquire method
// but their id-taking twin; and the protocol reaches the manager through its
// chain batch (AcquireBatchID) and, for a node whose downward scan precedes
// its lock, lockEntry's lone AcquireID.
func TestOneAcquireRoutine(t *testing.T) {
	lockCalls := callersIn(t, filepath.Join("internal", "lock"))
	coreCalls := callersIn(t, filepath.Join("internal", "core"))
	for _, c := range []struct {
		calls  map[string][]string
		callee string
		want   string
	}{
		{lockCalls, "tryGrant", "[Manager.acquire]"},
		{lockCalls, "enqueue", "[Manager.acquire]"},
		{coreCalls, "AcquireBatchID", "[Protocol.chain]"},
		{coreCalls, "AcquireID", "[Protocol.lockEntry]"},
	} {
		if got := fmt.Sprint(c.calls[c.callee]); got != c.want {
			t.Errorf("%s is called from %s, want %s", c.callee, got, c.want)
		}
	}
	allowed := map[string]string{"AcquireID": "Manager.AcquireCtx", "AcquireBatchID": "Manager.AcquireBatch"}
	for callee, fns := range lockCalls {
		if !strings.HasPrefix(callee, "Acquire") {
			continue
		}
		for _, fn := range fns {
			if strings.HasPrefix(fn, "Manager.Acquire") && allowed[callee] != fn {
				t.Errorf("%s calls %s: an exported Acquire method is acquire or a name wrapper of one", fn, callee)
			}
		}
	}
}

// callersIn maps each function or method name called in dir's non-test Go
// files to the sorted, distinct functions that call it ("Type.method" for a
// method).
func callersIn(t *testing.T, dir string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string][]string{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if st, ok := recv.(*ast.StarExpr); ok {
					recv = st.X
				}
				if g, ok := recv.(*ast.IndexExpr); ok { // a generic type's method
					recv = g.X
				}
				fn = recv.(*ast.Ident).Name + "." + fn
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch f := call.Fun.(type) {
				case *ast.Ident:
					callers[f.Name] = append(callers[f.Name], fn)
				case *ast.SelectorExpr:
					callers[f.Sel.Name] = append(callers[f.Sel.Name], fn)
				}
				return true
			})
		}
	}
	for callee, fns := range callers {
		sort.Strings(fns)
		callers[callee] = slices.Compact(fns)
	}
	return callers
}
