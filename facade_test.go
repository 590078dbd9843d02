package geostat

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestFacadeHasNoTwins keeps one entry point per tool: an exported
// function X next to XOpt, XWorkers or XCtx is a convenience wrapper that
// the explicit form already covers.
func TestFacadeHasNoTwins(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					funcs[fd.Name.Name] = true
				}
			}
		}
	}
	if len(funcs) == 0 {
		t.Fatal("parsed no exported facade functions")
	}
	var twins []string
	for name := range funcs {
		for _, suffix := range []string{"Opt", "Workers", "Ctx"} {
			if funcs[name+suffix] {
				twins = append(twins, name+"/"+name+suffix)
			}
		}
	}
	sort.Strings(twins)
	if len(twins) > 0 {
		t.Fatalf("facade twins (keep only the explicit form): %s", strings.Join(twins, ", "))
	}
}
