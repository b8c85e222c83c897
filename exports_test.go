package dmac_test

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

// testOnlyCeiling is how many exported declarations of internal/ no non-test
// file references (allow-list aside). It may fall, never rise: a name that
// only tests use is either dead code or belongs in its package's
// export_test.go.
const testOnlyCeiling = 0

// testOnlyAllowed are exported names that no non-test file of this module
// references on purpose.
var testOnlyAllowed = map[string]bool{
	// dmac's public surface re-exports it.
	"engine.Engine.SetScalar": true,
	// Helpers and readings the tests of other packages share, which an
	// export_test.go cannot reach.
	"core.RandomProgram":         true,
	"matrix.CellwiseGrid":        true,
	"matrix.NewDenseData":        true,
	"matrix.NewGrid":             true,
	"matrix.CellTree.EvalBlock":  true,
	"matrix.DenseBlock.Scale":    true,
	"matrix.CSCBlock.Scale":      true,
	"dist.Cluster.DeadWorkers":   true,
	"dist.Cluster.TransportName": true,
	"dist.Cluster.Net":           true,
	"sched.Executor.Mem":         true,
	"sched.MemTracker.Current":   true,
}

// interfaceMethods are method names a type exports to satisfy an interface
// of the standard library, which calls them where this module cannot see.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"Handle": true, "Enabled": true, "WithAttrs": true, "WithGroup": true,
	"ServeHTTP": true, "MarshalJSON": true, "Write": true,
	"Len": true, "Less": true, "Swap": true,
}

// exportedDecl is one exported declaration of a package under internal/.
type exportedDecl struct {
	dir, pkg, name, recv string
}

func (d exportedDecl) String() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// TestExportsUsedOutsideTests counts the exported declarations of internal/
// — functions, types, variables, constants and methods — that no non-test
// Go file of the repository references. References are resolved by name: a
// package-level name by its package's selector (or a bare use inside its own
// package), a method by any selector of its name, so a method called through
// an interface counts as used.
func TestExportsUsedOutsideTests(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	pkgRefs := map[string]map[string]bool{} // import path -> names referenced
	methodRefs := map[string]bool{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		self := "dmac/" + dir
		if strings.HasPrefix(dir, "internal/") {
			decls = append(decls, exported(dir, f)...)
		}
		refs := func(path string) map[string]bool {
			if pkgRefs[path] == nil {
				pkgRefs[path] = map[string]bool{}
			}
			return pkgRefs[path]
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[n] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					refs(imports[x.Name])[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					refs(self)[n.Name] = true
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
	for _, d := range decls {
		used := pkgRefs["dmac/"+d.dir][d.name]
		if d.recv != "" {
			used = methodRefs[d.name] || interfaceMethods[d.name]
		}
		if !used && !testOnlyAllowed[d.String()] {
			unused = append(unused, d.String())
		}
	}
	sort.Strings(unused)
	if len(decls) == 0 {
		t.Fatal("no exported declaration found under internal/: the scan is broken")
	}
	if len(unused) > testOnlyCeiling {
		t.Errorf("%d exported declarations used only by tests, ceiling %d:\n%s",
			len(unused), testOnlyCeiling, strings.Join(unused, "\n"))
	}
	t.Logf("%d exported declarations scanned, %d used only by tests", len(decls), len(unused))
}

// exported lists the exported declarations of one file.
func exported(dir string, f *ast.File) []exportedDecl {
	var out []exportedDecl
	add := func(n *ast.Ident, recv string) {
		if n.IsExported() {
			out = append(out, exportedDecl{dir: dir, pkg: f.Name.Name, name: n.Name, recv: recv})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, "")
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				add(d.Name, id.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, "")
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, "")
					}
				}
			}
		}
	}
	return out
}
