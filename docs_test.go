package horse

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestDocsNameLiveCode holds the prose to the code: every Go name that
// README.md, docs/*.md or the verify skill cites in backticks must
// resolve in the module's Go sources outside bench/.
//
//   - `pkg.Ident` and `pkg.Type.Member` (a trailing call is ignored)
//     must name a top-level declaration of a module package, and a
//     field or method of that type, embedded and aliased types
//     followed. The root package is `horse`. A first word that names no
//     module package is a standard-library package or a variable
//     (`exp.At`) and is not checked, nor is a name whose words after
//     the package are all lower case, which reads as a file name
//     (`horse.go`, `campaign.json`).
//   - `TestX`, `BenchmarkX` and `FuzzX` must name a function; a
//     trailing `*` makes X a prefix, and a `/sub` suffix is ignored.
func TestDocsNameLiveCode(t *testing.T) {
	idx := indexModule(t, ".")
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", ".claude/skills/verify/SKILL.md")
	checked := 0
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codeSpans(string(raw)) {
			ok, isName := idx.resolves(c.text)
			if !isName {
				continue
			}
			checked++
			if !ok {
				t.Errorf("%s:%d: `%s` names nothing in the code", doc, c.line, c.text)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cited name found: the span parser is broken")
	}
}

type codeSpan struct {
	text string
	line int
}

var spanRE = regexp.MustCompile("`([^`]+)`")

// codeSpans returns the inline code spans of a Markdown text, outside
// fenced blocks, with the line each starts on.
func codeSpans(md string) []codeSpan {
	lines := strings.Split(md, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	var spans []codeSpan
	for _, m := range spanRE.FindAllStringSubmatchIndex(text, -1) {
		spans = append(spans, codeSpan{
			text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
			line: 1 + strings.Count(text[:m[0]], "\n"),
		})
	}
	return spans
}

// pkgIndex is what one package name declares. Packages sharing a name
// (the commands' main) share an index.
type pkgIndex struct {
	decls   map[string]bool            // top-level names
	members map[string]map[string]bool // type -> fields and methods
	embeds  map[string][][2]string     // type -> embedded or aliased (pkg, type)
}

type moduleIndex struct {
	pkgs  map[string]*pkgIndex
	funcs map[string]bool // every top-level function name
}

// indexModule parses every Go file under root except bench/, testdata
// and hidden directories.
func indexModule(t *testing.T, root string) *moduleIndex {
	t.Helper()
	idx := &moduleIndex{pkgs: map[string]*pkgIndex{}, funcs: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join(root, "bench")) {
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
		name := f.Name.Name
		if filepath.Dir(path) == filepath.Clean(root) {
			name = "horse"
		}
		idx.add(name, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func (m *moduleIndex) add(name string, f *ast.File) {
	p := m.pkgs[name]
	if p == nil {
		p = &pkgIndex{decls: map[string]bool{}, members: map[string]map[string]bool{},
			embeds: map[string][][2]string{}}
		m.pkgs[name] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.decls[d.Name.Name] = true
				m.funcs[d.Name.Name] = true
			} else if typ := baseType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.decls[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					p.decls[typ] = true
					if s.Assign.IsValid() {
						if ref, ok := typeRef(name, s.Type); ok {
							p.embeds[typ] = append(p.embeds[typ], ref)
						}
					}
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(typ, n.Name)
						}
						if len(fld.Names) == 0 {
							if ref, ok := typeRef(name, fld.Type); ok {
								member(typ, ref[1])
								p.embeds[typ] = append(p.embeds[typ], ref)
							}
						}
					}
				}
			}
		}
	}
}

// baseType is the type name of a method receiver: T, *T, T[P], *T[P].
func baseType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return baseType(x.X)
	case *ast.IndexExpr:
		return baseType(x.X)
	case *ast.IndexListExpr:
		return baseType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// typeRef resolves an embedded or aliased type expression to a
// (package name, type name) pair.
func typeRef(pkg string, e ast.Expr) ([2]string, bool) {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeRef(pkg, x.X)
	case *ast.IndexExpr:
		return typeRef(pkg, x.X)
	case *ast.IndexListExpr:
		return typeRef(pkg, x.X)
	case *ast.Ident:
		return [2]string{pkg, x.Name}, true
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return [2]string{id.Name, x.Sel.Name}, true
		}
	}
	return [2]string{}, false
}

var (
	dottedRE = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(?:\(.*\))?$`)
	testRE   = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)(\*)?(?:/\S*)?$`)
)

// resolves reports whether a code span's text resolves, and whether it
// is a name this test checks at all.
func (m *moduleIndex) resolves(text string) (ok, isName bool) {
	if g := testRE.FindStringSubmatch(text); g != nil {
		if g[2] == "" {
			return m.funcs[g[1]], true
		}
		for f := range m.funcs {
			if strings.HasPrefix(f, g[1]) {
				return true, true
			}
		}
		return false, true
	}
	g := dottedRE.FindStringSubmatch(text)
	if g == nil {
		return false, false
	}
	p := m.pkgs[g[1]]
	if p == nil || !strings.ContainsFunc(g[2]+g[3], unicode.IsUpper) {
		return false, false
	}
	if g[3] == "" {
		return p.decls[g[2]], true
	}
	return m.hasMember(g[1], g[2], g[3], 0), true
}

// hasMember looks member up on pkg.typ, then on what it embeds or
// aliases.
func (m *moduleIndex) hasMember(pkg, typ, member string, depth int) bool {
	p := m.pkgs[pkg]
	if p == nil || depth > 8 {
		return false
	}
	if p.members[typ][member] {
		return true
	}
	for _, ref := range p.embeds[typ] {
		if m.hasMember(ref[0], ref[1], member, depth+1) {
			return true
		}
	}
	return false
}
