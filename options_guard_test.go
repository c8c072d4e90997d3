package lsl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeFiles declare the root package's public surface.
var facadeFiles = []string{"lsl.go", "route.go", "sim.go", "stripe.go"}

// A public option is a promise to keep a knob working. One that nothing
// sets — no command, example, benchmark or test — is a knob nobody can
// justify, so it goes instead of accumulating. Every exported With*/Without*
// var or func the root package declares must be referenced from cmd/,
// examples/, bench/ or some test file.
func TestPublicOptionsHaveCallers(t *testing.T) {
	options := map[string]bool{} // name -> referenced
	for _, path := range facadeFiles {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					addOption(options, d.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						addOption(options, name)
					}
				}
			}
		}
	}
	if len(options) < 10 {
		t.Fatalf("found only %d options in %v; is the working directory the module root?", len(options), facadeFiles)
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		caller := strings.HasSuffix(path, "_test.go") ||
			strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "examples/") || strings.HasPrefix(path, "bench/")
		if !caller || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		// Files outside the root package reach the surface through their
		// import of "lsl"; root-package tests name it directly.
		qualifier := ""
		if f.Name.Name != "lsl" {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "lsl" {
					qualifier = "lsl"
					if imp.Name != nil {
						qualifier = imp.Name.Name
					}
				}
			}
			if qualifier == "" {
				return nil
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && qualifier != "" && id.Name == qualifier {
					markReferenced(options, x.Sel.Name)
				}
			case *ast.Ident:
				if qualifier == "" {
					markReferenced(options, x.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, referenced := range options {
		if !referenced {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("public option lsl.%s has no caller in cmd/, examples/, bench/ or any test: delete it or use it", name)
	}
}

func addOption(options map[string]bool, name *ast.Ident) {
	if name.IsExported() && (strings.HasPrefix(name.Name, "With") || strings.HasPrefix(name.Name, "Without")) {
		options[name.Name] = false
	}
}

func markReferenced(options map[string]bool, name string) {
	if _, ok := options[name]; ok {
		options[name] = true
	}
}
