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

// wantOptionsAndFlags pins the size of the configuration surface outside
// bench/: every exported field of a struct type named *Options or *Config in
// a non-test file, plus every flag defined under cmd/. A change that adds or
// removes one updates this pin and says so in CHANGES.md.
const wantOptionsAndFlags = 91

// flagDefiners are the flag.FlagSet methods (and package-level flag
// functions) that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true,
	"Func": true, "TextVar": true, "Var": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"String": true, "StringVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
}

func TestOptionsAndFlagsCount(t *testing.T) {
	var fields, flags []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// .bench_build holds bench/'s module cache, with others' sources.
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		underCmd := strings.HasPrefix(path, "cmd"+string(filepath.Separator))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if !ok || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							fields = append(fields, f.Name.Name+"."+name+"."+id.Name)
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !underCmd || !flagDefiners[sel.Sel.Name] {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && (x.Name == "flag" || x.Name == "fs") && len(n.Args) > 0 {
					flags = append(flags, fset.Position(n.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fields) + len(flags); got != wantOptionsAndFlags {
		sort.Strings(fields)
		t.Errorf("options + flags = %d option fields + %d flags = %d, want %d\noption fields:\n  %s",
			len(fields), len(flags), got, wantOptionsAndFlags, strings.Join(fields, "\n  "))
	}
}
