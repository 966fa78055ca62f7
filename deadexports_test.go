package cllm

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

// keptExports are exported internal/ functions and methods that stay
// without a non-test caller, each with the reason.
var keptExports = map[string]string{
	"serve.(*BlockManager).CheckConservation": "safety audit: recounts every block the manager owns; tests run it after each walk",
	"stats.(*Sketch).Buckets":                 "the serve digest pins read a sketch's buckets from another package",
}

// TestNoDeadInternalExports fails when an exported top-level function or
// method under internal/ has no reference from non-test code anywhere in
// the module (cmd/, examples/, internal/, simbench/ and the root package).
// A function counts as used when another package selects it as pkg.Name,
// or when its own package names it outside its own declaration; a method
// counts as used when any .Name selector appears outside its declaration.
// The check is syntactic, so it can only miss dead code, never invent it.
func TestNoDeadInternalExports(t *testing.T) {
	type decl struct {
		pkg, recv, name string
		node            *ast.FuncDecl
	}
	var decls []decl
	type pkgFiles struct {
		name  string
		files []*ast.File
	}
	pkgs := map[string]*pkgFiles{} // import path → package
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
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
		imp := "cllm"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			imp += "/" + dir
		}
		p := pkgs[imp]
		if p == nil {
			p = &pkgFiles{name: f.Name.Name}
			pkgs[imp] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for imp, p := range pkgs {
		if !strings.HasPrefix(imp, "cllm/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				recv := ""
				if fd.Recv != nil {
					recv = recvName(fd.Recv.List[0].Type)
				}
				decls = append(decls, decl{imp, recv, fd.Name.Name, fd})
			}
		}
	}

	// Collect references, each keyed by the declaration it appears in (nil
	// outside functions) so that a function's own body is not counted.
	type pkgName struct{ pkg, name string }
	crossRefs := map[pkgName]bool{}                   // pkg.Name from another package
	localRefs := map[pkgName]map[*ast.FuncDecl]bool{} // bare Name, keyed by enclosing decl
	selRefs := map[string]map[*ast.FuncDecl]bool{}    // .Name selectors, keyed by enclosing decl
	for imp, p := range pkgs {
		for _, f := range p.files {
			imports := map[string]string{} // local name → import path
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				local := path[strings.LastIndex(path, "/")+1:]
				if ip := pkgs[path]; ip != nil {
					local = ip.name
				}
				if is.Name != nil {
					local = is.Name.Name
				}
				imports[local] = path
			}
			for _, d := range f.Decls {
				encl, _ := d.(*ast.FuncDecl)
				var visit func(ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok {
							if path, ok := imports[x.Name]; ok {
								crossRefs[pkgName{path, n.Sel.Name}] = true
								return false
							}
						}
						addRef(selRefs, n.Sel.Name, encl)
						ast.Inspect(n.X, visit)
						return false
					case *ast.Ident:
						if encl == nil || n != encl.Name {
							addRef(localRefs, pkgName{imp, n.Name}, encl)
						}
					}
					return true
				}
				ast.Inspect(d, visit)
			}
		}
	}

	var dead []string
	for _, d := range decls {
		var label string
		used := false
		if d.recv == "" {
			label = d.pkg[strings.LastIndex(d.pkg, "/")+1:] + "." + d.name
			used = crossRefs[pkgName{d.pkg, d.name}]
			for encl := range localRefs[pkgName{d.pkg, d.name}] {
				used = used || encl != d.node
			}
		} else {
			label = d.pkg[strings.LastIndex(d.pkg, "/")+1:] + ".(" + d.recv + ")." + d.name
			for encl := range selRefs[d.name] {
				used = used || encl != d.node
			}
		}
		if _, ok := keptExports[label]; !used && !ok {
			dead = append(dead, label)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported from internal/ but has no non-test caller: delete it, move it into a _test.go file, or unexport it", d)
	}
}

func addRef[K comparable](m map[K]map[*ast.FuncDecl]bool, k K, encl *ast.FuncDecl) {
	if m[k] == nil {
		m[k] = map[*ast.FuncDecl]bool{}
	}
	m[k][encl] = true
}

// recvName renders a method receiver type as T or *T, without type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
