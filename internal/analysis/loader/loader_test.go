package loader

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadGenericAtomicPointer pins the loader against the allocator's
// published-view shape: internal/alloc's Allocator holds an
// atomic.Pointer[View] field, so loading it exercises generic instantiation
// through the offline export-data importer. A loader that mishandles
// generics fails here with a type-check error rather than silently
// degrading every conc summary built on top of the package.
func TestLoadGenericAtomicPointer(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(wd))) // internal/analysis/loader -> module root
	pkgs, err := Load(root, []string{"./internal/alloc"})
	if err != nil {
		t.Fatalf("loader.Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !strings.HasSuffix(pkg.ImportPath, "internal/alloc") {
		t.Fatalf("ImportPath = %q", pkg.ImportPath)
	}
	obj := pkg.Types.Scope().Lookup("Allocator")
	if obj == nil {
		t.Fatal("Allocator not found in internal/alloc's scope")
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatalf("Allocator underlying type = %T, want struct", obj.Type().Underlying())
	}
	found := false
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type().String()
		if strings.Contains(ft, "atomic.Pointer") {
			found = true
			// The instantiated type argument must survive export-data
			// round-tripping with its full element type.
			if !strings.Contains(ft, "alloc.View") {
				t.Errorf("atomic.Pointer field lost its instantiation: %s", ft)
			}
		}
	}
	if !found {
		t.Fatal("no atomic.Pointer field resolved on Allocator; generics dropped by the importer")
	}
}
