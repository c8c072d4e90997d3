package lsl_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeFiles declare the root package's public surface.
var facadeFiles = []string{"lsl.go", "route.go", "sim.go", "stripe.go"}

// A public identifier is a promise to keep it working. One that nothing
// uses — no command, example, benchmark or test — is a promise nobody
// can justify, so it goes instead of accumulating. Every exported type,
// func, var and const the facade files declare must be referenced from
// cmd/, examples/, bench/ or some test file, or be a type named in an
// exported facade function's signature: that function's callers use it.
func TestPublicSurfaceHasCallers(t *testing.T) {
	surface := map[string]bool{} // name -> referenced
	var signatures []*ast.FuncType
	for _, path := range facadeFiles {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					surface[d.Name.Name] = false
					signatures = append(signatures, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						addExported(surface, s.Name)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							addExported(surface, name)
						}
					}
				}
			}
		}
	}
	if len(surface) < 50 {
		t.Fatalf("found only %d identifiers in %v; is the working directory the module root?", len(surface), facadeFiles)
	}
	for _, sig := range signatures {
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				markReferenced(surface, id.Name)
			}
			return true
		})
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
					markReferenced(surface, x.Sel.Name)
				}
			case *ast.Ident:
				if qualifier == "" {
					markReferenced(surface, x.Name)
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
	for name, referenced := range surface {
		if !referenced {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("public identifier lsl.%s has no caller in cmd/, examples/, bench/ or any test: delete it or use it", name)
	}
}

func addExported(surface map[string]bool, name *ast.Ident) {
	if name.IsExported() {
		surface[name.Name] = false
	}
}

func markReferenced(surface map[string]bool, name string) {
	if _, ok := surface[name]; ok {
		surface[name] = true
	}
}

// configTypes are the public config structs of the session path and of
// recovery: lsl.DepotConfig, lsl.LinkPoolConfig, lsl.Listener,
// lsl.TransferPolicy, lsl.GossipConfig and lsl.CustodyConfig.
var configTypes = []struct{ pkg, name string }{
	{"lsl/internal/depot", "Config"},
	{"lsl/internal/mux", "PoolConfig"},
	{"lsl/internal/core", "Listener"},
	{"lsl/internal/resilience", "Policy"},
	{"lsl/internal/gossip", "Config"},
	{"lsl/internal/custody", "Config"},
}

// A settable field is a knob too. One that only tests or its own package
// set is a default nobody outside can justify changing, so it is a
// constant or an unexported test seam instead. Every exported field of
// configTypes must be set — as a composite-literal key, an assignment
// target or an address taken — by a non-test file of the module or of
// bench/ outside the package that declares it. The check is type-aware:
// a same-named field of another struct (core.Options.HandshakeTimeout)
// does not count.
func TestPublicConfigFieldsHaveSetters(t *testing.T) {
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{} // import path -> export data file
	var pkgs []listed
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if _, dup := exports[p.ImportPath]; dup {
				continue
			}
			exports[p.ImportPath] = p.Export
			if !p.Standard {
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	fields := map[*types.Var]string{} // exported field -> "pkg.Type.Field"
	set := map[*types.Var]bool{}
	for _, ct := range configTypes {
		pkg, err := imp.Import(ct.pkg)
		if err != nil {
			t.Fatal(err)
		}
		st := pkg.Scope().Lookup(ct.name).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = pkg.Name() + "." + ct.name + "." + f.Name()
			}
		}
	}

	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		mark := func(e ast.Expr) {
			var id *ast.Ident
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident: // a composite-literal key
				id = x
			case *ast.SelectorExpr:
				id = x.Sel
			default:
				return
			}
			if v, ok := info.Uses[id].(*types.Var); ok && fields[v] != "" && v.Pkg().Path() != p.ImportPath {
				set[v] = true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					mark(x.Key)
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						mark(x.X)
					}
				}
				return true
			})
		}
	}

	var unset []string
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("config field %s is set by no non-test file outside its package: make it a constant or a test seam", name)
	}
}
