package lsl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// maxTestSleeps bounds the time.Sleep calls left in tests outside bench/.
const maxTestSleeps = 7

// A test that sleeps is usually waiting for something it could wait on
// instead: a depot's WaitStats, a channel a handler closes, a wrapper on
// a conn the test owns. The sleeps that stay model a slow path or wait
// out a real timer, each says which on its own line, and there are few.
func TestFewCommentedSleepsInTests(t *testing.T) {
	files, sleeps := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		commented := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				commented[fset.Position(c.Slash).Line] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Sleep" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "time" {
				return true
			}
			sleeps++
			if line := fset.Position(call.Pos()).Line; !commented[line] {
				t.Errorf("%s:%d: time.Sleep without a comment on its line; wait on an event, or name the timer it waits out", path, line)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d test files; is the working directory the module root?", files)
	}
	if sleeps > maxTestSleeps {
		t.Errorf("%d time.Sleep calls in tests, want at most %d", sleeps, maxTestSleeps)
	}
}
