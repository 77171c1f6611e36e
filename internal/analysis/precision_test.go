package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrecisionAllowedNamesDeclaredFuncs pins every precisionAllowed
// entry to a function or method declared in the non-test source of a
// package of that name in this module. An entry whose function was
// deleted is a silent exemption that a later function of the same name
// would inherit unaudited.
func TestPrecisionAllowedNamesDeclaredFuncs(t *testing.T) {
	declared := map[[2]string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[[2]string{f.Name.Name, fd.Name.Name}] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range precisionAllowed {
		if !declared[key] {
			t.Errorf("precisionAllowed entry %s.%s names no function declared in a non-test %q package", key[0], key[1], key[0])
		}
	}
}
