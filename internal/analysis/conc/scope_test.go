package conc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharing/internal/analysis"
)

// TestParallelDirectivesInScope: a //ssim:parallel directive declares a
// parallel region only in a package the concurrency passes analyze, so
// every package of the module carrying one must lie inside DefaultScope;
// outside it the directive is silently ignored.
func TestParallelDirectivesInScope(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	fset := token.NewFileSet()
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// Analyzer fixtures, hidden directories and nested modules are
			// not packages of this module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "sharing/" + filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && analysis.HasParallelDirective(fd) {
				found++
				if !analysis.InScope(pkg, Scope(DefaultScope)) {
					t.Errorf("%s: %s carries //ssim:parallel, but %s is outside conc.DefaultScope", fset.Position(fd.Pos()), fd.Name.Name, pkg)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no //ssim:parallel directive found: the walk missed the module")
	}
}
