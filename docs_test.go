package dmac_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pkgDecls is what one package declares: its top-level names, and the
// methods and fields of each of its types (embedded types listed separately,
// so promoted members resolve).
type pkgDecls struct {
	names    map[string]bool
	members  map[string]map[string]bool
	embedded map[string][]embed
}

// embed is an embedded type: pkg is "" for one of the same package.
type embed struct{ pkg, typ string }

// repoDecls parses every Go file of the repository, tests included, into
// the declarations of each non-main package, keyed by package name.
func repoDecls(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	decls := make(map[string]*pkgDecls)
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if name == "main" {
			return nil
		}
		p := decls[name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embedded: map[string][]embed{}}
			decls[name] = p
		}
		p.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// add records the declarations of one file.
func (p *pkgDecls) add(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
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
				p.member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					p.typeMembers(s.Name.Name, s.Type)
				}
			}
		}
	}
}

// typeMembers records the fields and interface methods of a type.
func (p *pkgDecls) typeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, fld := range fields.List {
		for _, n := range fld.Names {
			p.member(typ, n.Name)
		}
		if len(fld.Names) > 0 {
			continue
		}
		ft := fld.Type
		if star, ok := ft.(*ast.StarExpr); ok {
			ft = star.X
		}
		switch e := ft.(type) {
		case *ast.Ident:
			p.member(typ, e.Name)
			p.embedded[typ] = append(p.embedded[typ], embed{typ: e.Name})
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok {
				p.member(typ, e.Sel.Name)
				p.embedded[typ] = append(p.embedded[typ], embed{pkg.Name, e.Sel.Name})
			}
		}
	}
}

// hasMember reports whether typ of package pkg has member name, directly or
// promoted from an embedded type.
func hasMember(decls map[string]*pkgDecls, pkg, typ, name string, depth int) bool {
	p := decls[pkg]
	if p == nil || depth > 4 {
		return false
	}
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embedded[typ] {
		ep := e.pkg
		if ep == "" {
			ep = pkg
		}
		if hasMember(decls, ep, e.typ, name, depth+1) {
			return true
		}
	}
	return false
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// qualified is a reference to a package-level name or a type's member,
	// optionally followed by call arguments or a composite literal.
	qualified = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:[({].*)?$`)
	// bare is a type's member named without its package, Type.Member.
	bare    = regexp.MustCompile(`^([A-Z]\w*)\.([A-Za-z_]\w*)(?:[({].*)?$`)
	heading = regexp.MustCompile(`^(#+)\s+(.*)$`)
)

// TestDocsNameOnlyWhatExists resolves every backticked pkg.Name and
// pkg.Type.Member in DESIGN.md and README.md whose pkg is a package of this
// repository against that package's declarations, and every bare
// Type.Member whose Type some package declares with members against the
// members of the types of that name. Dotted lower-case names are metric
// names, not identifiers, and are exempt; so is every subsection titled
// "History", where the narratives of deleted code live.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	decls := repoDecls(t)
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		fenced, historyLevel := false, 0
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(text, "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			if h := heading.FindStringSubmatch(text); h != nil {
				level := len(h[1])
				if historyLevel > 0 && level <= historyLevel {
					historyLevel = 0
				}
				if strings.TrimSpace(h[2]) == "History" {
					historyLevel = level
				}
			}
			if historyLevel > 0 {
				continue
			}
			for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
				if m := bare.FindStringSubmatch(span[1]); m != nil && typeNamed(decls, m[1]) {
					checked++
					if !memberOfAny(decls, m[1], m[2]) {
						t.Errorf("%s:%d: `%s` names no member of a type %s", doc, line, span[1], m[1])
					}
					continue
				}
				m := qualified.FindStringSubmatch(span[1])
				if m == nil || decls[m[1]] == nil {
					continue
				}
				pkg, name, member := m[1], m[2], m[3]
				ref := strings.TrimSuffix(pkg+"."+name+"."+member, ".")
				if strings.ToLower(ref) == ref {
					continue // a metric name
				}
				checked++
				var ok bool
				if member == "" {
					ok = decls[pkg].names[name] || hasAnyMember(decls[pkg], name)
				} else {
					ok = hasMember(decls, pkg, name, member, 0)
				}
				if !ok {
					t.Errorf("%s:%d: `%s` names nothing package %s declares", doc, line, span[1], pkg)
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no qualified reference found in the docs: the scan is broken")
	}
	t.Logf("%d qualified references resolved", checked)
}

// hasAnyMember reports whether some type of the package has member name: the
// docs write a method as pkg.Method where the receiver is plain.
func hasAnyMember(p *pkgDecls, name string) bool {
	for _, ms := range p.members {
		if ms[name] {
			return true
		}
	}
	return false
}

// typeNamed reports whether some package declares a type typ with members.
func typeNamed(decls map[string]*pkgDecls, typ string) bool {
	for _, p := range decls {
		if len(p.members[typ]) > 0 {
			return true
		}
	}
	return false
}

// memberOfAny reports whether a type typ of some package has member name.
func memberOfAny(decls map[string]*pkgDecls, typ, name string) bool {
	for pkg := range decls {
		if hasMember(decls, pkg, typ, name, 0) {
			return true
		}
	}
	return false
}
