package andorsched

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

// keptExported lists the exported functions and methods under internal/
// that no non-test code names, each with the reason it stays. Functions
// are keyed pkg.Name, methods pkg.Recv.Name.
var keptExported = map[string]string{
	"andor.Graph.NodeByName": "lookup by name that a dozen test files use to pick nodes",
	"andor.Graph.SetClass":   "authoring call that tags a node's processor class; heterogeneous tests build graphs with it",
	"power.NoOverheads":      "the zero-overhead model, the paper's idealized baseline",
	"serve.Server.Handler":   "the server as an http.Handler, which tests and benchmarks drive with httptest; andord calls Serve",
	"sim.NewArena":           "the engine's documented constructor, shown by its Example; core embeds the arena by value",
}

// jsonMethods are called by encoding/json through json.Marshaler and
// json.Unmarshaler, never by name.
var jsonMethods = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true}

// TestNoTestOnlyExports fails when an exported top-level function or
// method declared in a non-test file under internal/ is used by no
// non-test file under internal/, cmd/, examples/ or perfbench/ outside its
// own declaration: API that only tests call belongs in the tests.
//
// A function is used where its package names it bare or another package
// names it pkg.Name through an import. A method is used where any
// selector x.Name that is not package-qualified appears: without type
// information the receiver is unknown, so a test-only method whose name
// is also selected on another type (a field, or a method such as Reset
// or String) is not caught.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key      string // pkg.Name or pkg.Recv.Name
		pos      token.Position
		from, to token.Pos
	}
	type file struct {
		dir string
		ast *ast.File
	}
	fset := token.NewFileSet()
	funcs := map[string]*decl{}     // dir + "." + Name → its declaration
	methods := map[string][]*decl{} // Name → its declarations
	pkgName := map[string]string{}  // dir → package name
	var files []file
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
			dir := filepath.ToSlash(filepath.Dir(path))
			files = append(files, file{dir, f})
			pkgName[dir] = f.Name.Name
			if root != "internal" {
				return nil
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				dc := &decl{pos: fset.Position(fd.Pos()), from: fd.Pos(), to: fd.End()}
				if fd.Recv == nil {
					dc.key = f.Name.Name + "." + fd.Name.Name
					funcs[dir+"."+fd.Name.Name] = dc
				} else {
					dc.key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					methods[fd.Name.Name] = append(methods[fd.Name.Name], dc)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := map[*decl]bool{}
	useFunc := func(dir, name string, at token.Pos) {
		if d := funcs[dir+"."+name]; d != nil && (at < d.from || at >= d.to) {
			used[d] = true
		}
	}
	useMethod := func(name string, at token.Pos) {
		ds := methods[name]
		for _, d := range ds {
			if at >= d.from && at < d.to {
				return // inside a declaration of a method of that name
			}
		}
		for _, d := range ds {
			used[d] = true
		}
	}
	for _, f := range files {
		imports := map[string]string{} // local name → dir of an in-tree package
		for _, is := range f.ast.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			dir, ok := strings.CutPrefix(path, "andorsched/")
			if !ok {
				continue
			}
			name := pkgName[dir]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = dir
		}
		skip := map[*ast.Ident]bool{} // selector names, field names and keys
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						useFunc(dir, n.Sel.Name, n.Sel.Pos())
						return true
					}
				}
				useMethod(n.Sel.Name, n.Sel.Pos())
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[n] {
					useFunc(f.dir, n.Name, n.Pos())
				}
			}
			return true
		})
	}

	all := map[string]bool{}
	var unused []string
	check := func(d *decl) {
		all[d.key] = true
		if _, kept := keptExported[d.key]; !used[d] && !kept {
			unused = append(unused, d.pos.String()+": "+d.key)
		}
	}
	for _, d := range funcs {
		check(d)
	}
	for name, ds := range methods {
		for _, d := range ds {
			if !jsonMethods[name] {
				check(d)
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code uses it: delete it, move it into its test, or add it to keptExported with the reason", u)
	}
	for key := range keptExported {
		if !all[key] {
			t.Errorf("keptExported names %s, which internal/ no longer declares", key)
		}
	}
}

// recvName is the type name of a method receiver, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
