package cstf_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the exported identifiers in internal/ that no
// non-test code reaches but that tests in other packages share, each with
// the reason it stays. Keys are "pkg.Name" or "pkg.Type.Method", with pkg
// the path below internal/.
var testOnlyExports = map[string]string{
	"la.Solve":                  "oracle: the Gaussian elimination CholeskySolve and Pinv are checked against",
	"la.Hadamard":               "oracle: the V matrix cpals.HadamardOfGramsExcept is checked against",
	"la.MaxAbsDiff":             "oracle: the matrix comparison the solver and kernel tests share",
	"la.VecMaxAbsDiff":          "oracle: the vector comparison the solver and kernel tests share",
	"la.KhatriRao":              "oracle: the explicit product of the textbook MTTKRP the cpals kernel is checked against",
	"la.Dense.FrobeniusNorm":    "oracle: scales the tolerance of the CSF and dense-kernel comparisons",
	"la.Dense.NormalizeColumns": "oracle: the serial normalization NormalizeColumnsParallel is checked against",
	"la.Dense.Zero":             "test probe: clears output buffers between cpals kernel runs",
	"cluster.LaptopProfile":     "test probe: the small host profile the rdd, mapreduce, bigtensor and core tests run on",
	"stream.NewSliceSource":     "test probe: feeds a fixed event list to the stream and chain tests",
	"tensor.COO.Matricize":      "oracle: the unfolding of the textbook MTTKRP the cpals kernel is checked against",
	"cpals.MTTKRP":              "oracle: the serial COO MTTKRP the CSF, dist, bigtensor and core kernels are checked against",
	"mapreduce.Env.Counter":     "test probe: bigtensor's job-count test reads it",
	"rdd.Count":                 "fixture: the Join and ReduceByKey tests count their output with it",
	"rdd.PartitionBy":           "fixture: the Join and ReduceByKey tests co-partition their input with it",
}

// stdMethods are method names that standard-library interfaces call, so a
// method with one of these names is reached without a selector in the
// module.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"Is": true, "As": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalBinary": true,
	"UnmarshalBinary": true, "ServeHTTP": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Read": true, "Write": true,
	"Close": true, "Seek": true, "ReadAt": true, "WriteTo": true, "ReadFrom": true,
	"Timeout": true, "Temporary": true,
}

// A declaration in internal/ that non-test code does not reach is code the
// system does not run: delete it, or, when tests in other packages share
// it, list it in testOnlyExports with the reason. A reference counts only
// from code that is itself reached, so a chain of dead helpers is named in
// one run. Allowlist entries must stay unreached and declared.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	g, err := scanModule(".")
	if err != nil {
		t.Fatal(err)
	}
	g.reach()

	byName := map[string]*node{}
	for _, n := range g.nodes {
		byName[n.name] = n
	}
	var stale []string
	for name := range testOnlyExports {
		n, ok := byName[name]
		switch {
		case !ok:
			stale = append(stale, name+": not declared")
		case n.live:
			stale = append(stale, fmt.Sprintf("%s %s: reached from non-test code", n.pos, name))
		default:
			// Tests call it, so what it uses stays too.
			g.mark(n)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("stale testOnlyExports entries (remove them):\n%s", strings.Join(stale, "\n"))
	}
	g.reach()

	var unreached []string
	for _, n := range g.nodes {
		if !n.live {
			if _, ok := testOnlyExports[n.name]; !ok {
				unreached = append(unreached, fmt.Sprintf("%s %s", n.pos, n.name))
			}
		}
	}
	if len(unreached) > 0 {
		t.Errorf("declared in internal/ but not reached from non-test code (delete it, or allowlist it with a reason):\n%s",
			strings.Join(unreached, "\n"))
	}
}

// node is one top-level declaration in internal/: a function, a method, a
// type, or one name of a const or var spec.
type node struct {
	pos  string   // file:line
	name string   // pkg.Name or pkg.Type.Method, pkg relative to internal/
	key  string   // what a reference to it is recorded under
	uses []string // keys referenced from its declaration
	live bool
}

// graph holds internal/'s declarations and the reference keys reached so
// far. A package-level name's key is its import path and name; a method's
// key is its bare name, since any selector of that name may reach it.
type graph struct {
	nodes   []*node
	byKey   map[string][]*node
	reached map[string]bool
	work    []string
}

func (g *graph) use(key string) {
	if !g.reached[key] {
		g.reached[key] = true
		g.work = append(g.work, key)
	}
}

func (g *graph) mark(n *node) {
	if n.live {
		return
	}
	n.live = true
	for _, k := range n.uses {
		g.use(k)
	}
}

// reach marks every declaration whose key is reached, transitively.
func (g *graph) reach() {
	for len(g.work) > 0 {
		k := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, n := range g.byKey[k] {
			g.mark(n)
		}
	}
}

// scanModule parses every non-test Go file under root. References in files
// outside internal/ are roots; so are init functions, blank vars and
// methods the standard library calls.
func scanModule(root string) (*graph, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("go.mod: no module line")
	}

	g := &graph{byKey: map[string][]*node{}, reached: map[string]bool{}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(filepath.Dir(p))
		pkg := module
		if rel != "." {
			pkg = module + "/" + rel
		}
		r := newRefs(f, pkg)
		short, internal := strings.CutPrefix(rel, "internal/")
		if !internal {
			for _, k := range r.in(f) {
				g.use(k)
			}
			return nil
		}
		for _, n := range declNodes(fset, f, pkg, short, r) {
			g.nodes = append(g.nodes, n)
			g.byKey[n.key] = append(g.byKey[n.key], n)
			if strings.HasSuffix(n.name, ".init") || strings.HasSuffix(n.name, "._") ||
				(strings.HasPrefix(n.key, ".") && stdMethods[n.key[1:]]) {
				g.mark(n)
			}
		}
		return nil
	})
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].name < g.nodes[j].name })
	return g, err
}

// declNodes lists f's top-level declarations with the keys each one uses.
func declNodes(fset *token.FileSet, f *ast.File, pkg, short string, r *refs) []*node {
	var out []*node
	add := func(id *ast.Ident, name, key string, body ast.Node) {
		p := fset.Position(id.Pos())
		out = append(out, &node{
			pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line),
			name: short + "." + name,
			key:  key,
			uses: r.in(body),
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, d.Name.Name, pkg+"."+d.Name.Name, d)
				continue
			}
			recv := recvTypeName(d.Recv.List[0].Type)
			add(d.Name, recv+"."+d.Name.Name, "."+d.Name.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name, pkg+"."+s.Name.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name, pkg+"."+id.Name, s)
					}
				}
			}
		}
	}
	return out
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// refs resolves the identifiers of one file to reference keys.
type refs struct {
	pkg     string
	imports map[string]string // local name -> import path
	skip    map[*ast.Ident]bool
}

// newRefs prepares f: declared names, field names and parameter names are
// not uses, nor is the selected name of a selector.
func newRefs(f *ast.File, pkg string) *refs {
	r := &refs{pkg: pkg, imports: map[string]string{}, skip: map[*ast.Ident]bool{}}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		r.imports[local] = p
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			r.skip[d.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					r.skip[s.Name] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						r.skip[id] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			r.skip[n.Sel] = true
		case *ast.Field:
			for _, id := range n.Names {
				r.skip[id] = true
			}
		}
		return true
	})
	return r
}

// in returns the keys referenced inside n: a selector through one of the
// file's imports reaches that package's name, any other selector reaches
// every method of its name, and a bare identifier reaches the name in the
// file's own package.
func (r *refs) in(n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := r.imports[x.Name]; ok {
					keys = append(keys, p+"."+n.Sel.Name)
					return false
				}
			}
			keys = append(keys, "."+n.Sel.Name)
		case *ast.Ident:
			if !r.skip[n] {
				keys = append(keys, r.pkg+"."+n.Name)
			}
		}
		return true
	})
	return keys
}
