package cartcc_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadExportAllowlist names the internal exports that stay although no
// code outside their own package's tests refers to them. The key is
// "pkgpath.Name" or "pkgpath.Recv.Name"; the reason must start with one of
// deadExportReasons. "Might be useful" is not a reason: such code goes.
var deadExportAllowlist = map[string]string{
	"cartcc/internal/cart.Schedule.Validate":        "oracle: the structural checker every compiled schedule is tested against",
	"cartcc/internal/cart.MooreAlltoallVolume":      "oracle: the closed-form Moore alltoall volume the compiled schedules are checked against",
	"cartcc/internal/cart.MooreAllgatherVolume":     "oracle: the closed-form Moore allgather volume the compiled schedules are checked against",
	"cartcc/internal/cart.MooreRounds":              "oracle: the closed-form Moore round count the compiled schedules are checked against",
	"cartcc/internal/datatype.Composite.Validate":   "oracle: the structural checker the composite-layout tests run",
	"cartcc/internal/stencil.MooreVolumeElements2D": "oracle: the closed-form 2-D halo volume the exchangers are checked against",
	"cartcc/internal/stencil.MooreVolumeElements3D": "oracle: the closed-form 3-D halo volume the exchangers are checked against",
	"cartcc/internal/vec.Grid.Displace":             "oracle: the vector reference RankDisplace and RankDisplaceNeg are checked against",
}

// deadExportReasons are the only kinds of reason an allowlist entry may give.
var deadExportReasons = []string{
	"paper API:",           // Listings 1-5, Algorithms 1-2
	"baseline comparator:", // the paper's comparison baseline
	"oracle:",              // a reference or checker tests compare against
	"stdlib interface:",    // a method the standard library calls dynamically
}

// dynamicMethods are called by the standard library through interfaces
// the checked code need not mention (fmt, errors, encoding).
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalText": true, "UnmarshalText": true,
}

// TestNoDeadExports fails on any exported identifier of an internal
// package that nothing refers to outside its own package's tests, and on
// any allowlist entry the scan no longer flags.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules from source")
	}
	dead, err := findDeadExports([]goModule{
		{path: "cartcc", dir: "."},
		{path: "cartcc/benchmark", dir: "benchmark"},
	}, "cartcc/internal/")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkDeadExports(dead, deadExportAllowlist) {
		t.Error(p)
	}
}

// TestDeadExportGateFixture runs the classifier over a fixture module whose
// answer is known, so a gate that flags nothing cannot pass.
func TestDeadExportGateFixture(t *testing.T) {
	dead, err := findDeadExports([]goModule{{path: "fixture", dir: filepath.Join("testdata", "deadexport")}}, "fixture/internal/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture/internal/lib.Dead",           // no reference at all
		"fixture/internal/lib.OnlyOwnTest",    // referenced by its own package's test only
		"fixture/internal/lib.Recursive",      // referenced by itself only
		"fixture/internal/lib.Shape.Unused",   // a method no interface asks for
		"fixture/internal/lib.Unreached",      // a type mentioned only by its own methods
		"fixture/internal/lib.Unreached.Work", // and its method
	}
	if !slices.Equal(dead, want) {
		t.Fatalf("flagged %q\nwant    %q", dead, want)
	}
	problems := checkDeadExports(dead, map[string]string{
		"fixture/internal/lib.Dead":        "oracle: fixture",
		"fixture/internal/lib.OnlyOwnTest": "might be useful",
		"fixture/internal/lib.Shape.Area":  "stdlib interface: live, so stale",
	})
	wantProblems := []string{
		`fixture/internal/lib.OnlyOwnTest: allowlist reason "might be useful" is not one of`,
		"fixture/internal/lib.Recursive: exported but never referenced outside its own package's tests",
		"fixture/internal/lib.Shape.Unused: exported but never referenced",
		"fixture/internal/lib.Unreached: exported but never referenced",
		"fixture/internal/lib.Unreached.Work: exported but never referenced",
		"fixture/internal/lib.Shape.Area: allowlisted but no longer flagged",
	}
	if len(problems) != len(wantProblems) {
		t.Fatalf("problems %q\nwant %d of them", problems, len(wantProblems))
	}
	for i, p := range problems {
		if !strings.HasPrefix(p, wantProblems[i]) {
			t.Errorf("problem %d = %q, want prefix %q", i, p, wantProblems[i])
		}
	}
}

// checkDeadExports compares the flagged identifiers with an allowlist and
// returns one line per unlisted identifier, invalid reason or stale entry.
func checkDeadExports(dead []string, allow map[string]string) []string {
	var problems []string
	flagged := map[string]bool{}
	for _, id := range dead {
		flagged[id] = true
		reason, ok := allow[id]
		switch {
		case !ok:
			problems = append(problems, id+": exported but never referenced outside its own package's tests; delete it or allowlist it with a reason")
		case !slices.ContainsFunc(deadExportReasons, func(p string) bool { return strings.HasPrefix(reason, p) }):
			problems = append(problems, fmt.Sprintf("%s: allowlist reason %q is not one of %q", id, reason, deadExportReasons))
		}
	}
	var stale []string
	for id := range allow {
		if !flagged[id] {
			stale = append(stale, id+": allowlisted but no longer flagged; remove the entry")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

type goModule struct{ path, dir string }

// srcPackage is one package directory: its parsed files split the way the
// go command splits them, and the type-checked variants built from them.
type srcPackage struct {
	path   string
	files  []*ast.File // non-test
	tests  []*ast.File // _test.go files of the same package
	xtests []*ast.File // _test.go files of package <name>_test

	base     *types.Package
	checking bool
}

// deadScan type-checks every package of a set of modules and records which
// objects of the scanned packages are referenced from where.
type deadScan struct {
	fset   *token.FileSet
	pkgs   map[string]*srcPackage
	stdlib types.Importer
	prefix string

	live   map[string]bool           // keys referenced from somewhere that counts
	self   map[string][]posRange     // declaration extents: references inside do not count
	ifaces map[*types.Interface]bool // every interface with methods seen anywhere
	errs   []error
}

type posRange struct{ from, to token.Pos }

// findDeadExports returns, sorted, the exported package-level funcs, types,
// vars and consts, and the exported methods of exported types, of every
// package whose path starts with prefix that nothing refers to outside
// its own package's _test.go files and its own declaration. A method that
// satisfies an interface of the checked code, or one the standard library
// calls dynamically, is live.
func findDeadExports(mods []goModule, prefix string) ([]string, error) {
	fset := token.NewFileSet()
	s := &deadScan{
		fset:   fset,
		pkgs:   map[string]*srcPackage{},
		stdlib: importer.ForCompiler(fset, "source", nil),
		prefix: prefix,
		live:   map[string]bool{},
		self:   map[string][]posRange{},
		ifaces: map[*types.Interface]bool{},
	}
	for _, m := range mods {
		if err := s.load(m); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if strings.HasPrefix(p, prefix) {
			s.recordSelf(s.pkgs[p])
		}
	}
	for _, p := range paths {
		s.checkAll(s.pkgs[p])
	}
	if len(s.errs) > 0 {
		return nil, fmt.Errorf("type-checking failed: %v", s.errs)
	}
	var dead []string
	for _, p := range paths {
		if strings.HasPrefix(p, prefix) {
			dead = append(dead, s.deadIn(s.pkgs[p])...)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// load parses every package directory of a module, skipping testdata,
// hidden directories and nested modules.
func (s *deadScan) load(m goModule) error {
	return filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != m.dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		p := &srcPackage{path: m.path}
		if rel != "." {
			p.path = m.path + "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(e.Name(), "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
		}
		if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
			s.pkgs[p.path] = p
		}
		return nil
	})
}

// Import resolves the scanned modules' packages to their non-test variant
// and everything else to the standard library, type-checked from source.
func (s *deadScan) Import(path string) (*types.Package, error) {
	p, ok := s.pkgs[path]
	if !ok {
		return s.stdlib.Import(path)
	}
	if p.base == nil {
		if p.checking {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		p.checking = true
		p.base = s.check(p.path, p.files, s)
	}
	return p.base, nil
}

// checkAll type-checks a package as the go command builds it: alone, with
// its in-package tests, and its external test package against the latter.
func (s *deadScan) checkAll(p *srcPackage) {
	if _, err := s.Import(p.path); err != nil {
		s.errs = append(s.errs, err)
		return
	}
	under := p.base
	if len(p.tests) > 0 {
		under = s.check(p.path, append(slices.Clip(p.files), p.tests...), s)
	}
	if len(p.xtests) > 0 {
		s.check(p.path+"_test", p.xtests, importerFunc(func(path string) (*types.Package, error) {
			if path == p.path {
				return under, nil
			}
			return s.Import(path)
		}))
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks one package variant and records its references into
// the scanned packages and the interfaces it mentions.
func (s *deadScan) check(path string, files []*ast.File, imp types.Importer) *types.Package {
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) { s.errs = append(s.errs, err) }}
	pkg, _ := conf.Check(path, s.fset, files, info)
	home := strings.TrimSuffix(path, "_test")
	for id, obj := range info.Uses {
		key := s.objKey(obj)
		if key == "" {
			continue
		}
		if obj.Pkg().Path() == home {
			if strings.HasSuffix(s.fset.Position(id.Pos()).Filename, "_test.go") || s.inSelf(key, id.Pos()) {
				continue
			}
		}
		s.live[key] = true
	}
	for _, tv := range info.Types {
		s.noteInterface(tv.Type)
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			s.noteInterface(tn.Type())
		}
	}
	return pkg
}

func (s *deadScan) noteInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
		s.ifaces[it] = true
	}
}

// objKey names an object of a scanned package as "pkgpath.Name" or
// "pkgpath.Recv.Name", the same in every package variant; it returns ""
// for anything else.
func (s *deadScan) objKey(obj types.Object) string {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), s.prefix) {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		named := recvNamed(recv.Type())
		if named == nil {
			return "" // an interface method
		}
		return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
	case *types.TypeName, *types.Const:
		if o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	case *types.Var:
		if !o.IsField() && o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// recordSelf notes the extent of every top-level declaration: a reference
// from inside an identifier's own declaration (recursion, or a type's own
// methods) is no caller.
func (s *deadScan) recordSelf(p *srcPackage) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				r := posRange{d.Pos(), d.End()}
				if d.Recv == nil {
					s.addSelf(p.path+"."+d.Name.Name, r)
					continue
				}
				recv := d.Recv.List[0].Type // T, *T, T[P] or *T[P, Q]
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch e := recv.(type) {
				case *ast.IndexExpr:
					recv = e.X
				case *ast.IndexListExpr:
					recv = e.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					s.addSelf(p.path+"."+id.Name+"."+d.Name.Name, r)
					s.addSelf(p.path+"."+id.Name, r)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						s.addSelf(p.path+"."+sp.Name.Name, posRange{sp.Pos(), sp.End()})
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							s.addSelf(p.path+"."+n.Name, posRange{sp.Pos(), sp.End()})
						}
					}
				}
			}
		}
	}
}

func (s *deadScan) addSelf(key string, r posRange) { s.self[key] = append(s.self[key], r) }

func (s *deadScan) inSelf(key string, pos token.Pos) bool {
	for _, r := range s.self[key] {
		if r.from <= pos && pos < r.to {
			return true
		}
	}
	return false
}

// deadIn lists the dead exports of one scanned package.
func (s *deadScan) deadIn(p *srcPackage) []string {
	if p.base == nil {
		return nil
	}
	var dead []string
	scope := p.base.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		key := p.path + "." + name
		if !s.live[key] {
			dead = append(dead, key)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		satisfied := s.interfaceMethods(named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			mkey := key + "." + m.Name()
			if m.Exported() && !s.live[mkey] && !dynamicMethods[m.Name()] && !satisfied[m.Name()] {
				dead = append(dead, mkey)
			}
		}
	}
	return dead
}

// interfaceMethods returns the names of the methods through which T or *T
// satisfies an interface of the checked code.
func (s *deadScan) interfaceMethods(named *types.Named) map[string]bool {
	names := map[string]bool{}
	if named.TypeParams().Len() > 0 {
		return names // an uninstantiated generic type implements nothing
	}
	ptr := types.NewPointer(named)
	for it := range s.ifaces {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	return names
}
