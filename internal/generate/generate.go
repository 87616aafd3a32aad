// Package generate implements the weaver code generator (paper §4.2).
//
// The generator type-checks a package with go/types and finds its
// implementation structs: those that embed weaver.Implements[T]. Everything
// it knows about the package comes from that one type-checked view; the
// syntax tree is read only for the //weaver: directives in doc comments.
// For every discovered component it emits, into weaver_gen.go in the same
// package:
//
//   - an args struct and a results struct per method, whose
//     WeaverMarshal/WeaverUnmarshal methods are the data plane's codec (the
//     JSON baseline serializes the same structs);
//   - one straight-line encode and one decode function for every type
//     reachable from a method's parameters and results (codecs.go). No
//     reflection runs on a call; a type the wire format cannot carry is a
//     generation-time error;
//   - a client stub type implementing the component interface, whose
//     methods pack arguments and delegate to a codegen.Conn;
//   - a server-side dispatch closure per method that calls the real
//     implementation with zero reflection;
//   - a Shard function per routed method, derived from the component's
//     weaver.WithRouter[R] embedding;
//   - an init-time codegen.Register call tying it all together.
//
// The generated code is compiled into the application binary alongside the
// developer's code, exactly as §4.2 prescribes.
package generate

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WeaverImportPath is the import path of the public weaver package whose
// Implements/WithRouter embeddings mark components.
const WeaverImportPath = "repro/weaver"

// Options configures generation.
type Options struct {
	// Dir is the package directory to scan.
	Dir string
	// PkgPath overrides the computed import path of the package (used to
	// derive component full names). When empty it is derived from go.mod.
	PkgPath string
}

// A component is one discovered Implements embedding.
type component struct {
	ifaceName  string
	implName   string
	routerName string // "" if unrouted
	methods    []*method
}

// A method is one component interface method.
type method struct {
	name     string
	params   []types.Type // excluding the leading context
	results  []types.Type // excluding the trailing error
	variadic bool         // last param is variadic
	routed   bool         // router has a matching method
	noRetry  bool         // "weaver:noretry" directive in the doc comment
	priority int          // "weaver:priority=..." directive (0 normal, 1 low, 2 high, 3 critical)
}

// Generate scans the package in opts.Dir and returns the contents of its
// weaver_gen.go. It returns (nil, nil) if the package declares no
// components.
func Generate(opts Options) ([]byte, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, opts.Dir, func(fi os.FileInfo) bool {
		name := fi.Name()
		return !strings.HasSuffix(name, "_test.go") && name != "weaver_gen.go"
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var pkg *ast.Package
	for name, p := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		if pkg != nil {
			return nil, fmt.Errorf("generate: multiple packages in %s", opts.Dir)
		}
		pkg = p
	}
	if pkg == nil {
		return nil, fmt.Errorf("generate: no Go package in %s", opts.Dir)
	}

	pkgPath := opts.PkgPath
	if pkgPath == "" {
		pkgPath, err = packagePath(opts.Dir)
		if err != nil {
			return nil, err
		}
	}

	g := &generator{pkgPath: pkgPath, imports: map[string]string{}}
	g.codecs = newCodecGen(g)
	// The type-checked package is all the generator reads: components,
	// signatures, wire types and the spelling of every type in the
	// generated file. Type errors are tolerated, since the package may call
	// into the weaver_gen.go being regenerated; an unresolved type is an
	// error only where a component method uses it. The weaver package must
	// resolve: without it no component can be seen, and reporting none
	// would delete a good weaver_gen.go.
	files := sortedFiles(pkg)
	tpkg, unresolved, _ := typeCheck(opts.Dir, pkgPath, fset, files, func(err error) {
		if g.typeErr == nil {
			g.typeErr = err
		}
	})
	if why, ok := unresolved[WeaverImportPath]; ok {
		return nil, fmt.Errorf("generate: %s: cannot load %s, so no component can be found: %s", opts.Dir, WeaverImportPath, why)
	}
	g.tpkg = tpkg
	if err := g.findComponents(methodDocs(files)); err != nil {
		return nil, err
	}
	if len(g.components) == 0 {
		return nil, nil
	}
	return g.emit()
}

// GenerateToFile runs Generate and writes weaver_gen.go into the package
// directory, removing a stale file if the package no longer has components.
func GenerateToFile(opts Options) (string, error) {
	out, err := Generate(opts)
	if err != nil {
		return "", err
	}
	path := filepath.Join(opts.Dir, "weaver_gen.go")
	if out == nil {
		if _, err := os.Stat(path); err == nil {
			return path, os.Remove(path)
		}
		return "", nil
	}
	return path, os.WriteFile(path, out, 0o644)
}

// packagePath computes a directory's import path by locating the enclosing
// go.mod.
func packagePath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	cur := abs
	for {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			mod := modulePath(data)
			if mod == "" {
				return "", fmt.Errorf("generate: cannot parse module path in %s/go.mod", cur)
			}
			rel, err := filepath.Rel(cur, abs)
			if err != nil {
				return "", err
			}
			if rel == "." {
				return mod, nil
			}
			return mod + "/" + filepath.ToSlash(rel), nil
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			return "", fmt.Errorf("generate: no go.mod above %s", dir)
		}
		cur = parent
	}
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

type generator struct {
	pkgPath    string
	tpkg       *types.Package // the type-checked package
	typeErr    error          // first type-checking error, if any
	components []*component
	// imports maps import path -> local name in the generated file.
	imports map[string]string
	codecs  *codecGen
}

// typeCheck type-checks files, reading the packages they import from the
// compiler's export data, which `go list -export` finds in (or adds to) the
// build cache of dir's module. Listing the imports rather than the package
// itself keeps a stale or broken weaver_gen.go out of the build. Each type
// error goes to onErr; if onErr is nil, checking stops at the first, which
// is returned. unresolved says why each import without export data has none.
func typeCheck(dir, pkgPath string, fset *token.FileSet, files []*ast.File, onErr func(error)) (pkg *types.Package, unresolved map[string]string, err error) {
	seen := map[string]bool{}
	var paths []string
	for _, f := range files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	sort.Strings(paths)
	exports, unresolved := map[string]string{}, map[string]string{}
	if len(paths) > 0 {
		args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}\t{{with .Error}}{{.Err}}{{end}}", "--"}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output() // partial output still resolves what it can
		why := map[string]string{}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.SplitN(line, "\t", 3); len(f) == 3 {
				exports[f[0]], why[f[0]] = f[1], f[2]
			}
		}
		for _, p := range paths {
			if exports[p] == "" {
				if err != nil {
					why[p] = fmt.Sprintf("go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
				}
				unresolved[p] = why[p]
			}
		}
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file := exports[path]
			if file == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
		Error: onErr,
	}
	pkg, err = conf.Check(pkgPath, fset, files, nil)
	return pkg, unresolved, err
}

// findComponents collects every package-level struct that embeds
// weaver.Implements[T], in interface name order. docs holds the doc
// comments of interface methods by the position of their names.
func (g *generator) findComponents(docs map[token.Pos]*ast.CommentGroup) error {
	scope := g.tpkg.Scope()
	implOf := map[string]string{} // interface -> implementation
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var iface, router types.Type
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Embedded() {
				switch kind, arg := weaverEmbedding(f.Type()); kind {
				case "Implements":
					iface = arg
				case "WithRouter":
					router = arg
				}
			}
		}
		if iface == nil {
			continue
		}
		c, err := g.component(name, iface, router, docs)
		if err != nil {
			return err
		}
		if prev, dup := implOf[c.ifaceName]; dup {
			return fmt.Errorf("generate: interface %s implemented by both %s and %s", c.ifaceName, prev, name)
		}
		implOf[c.ifaceName] = name
		g.components = append(g.components, c)
	}
	sort.Slice(g.components, func(i, j int) bool { return g.components[i].ifaceName < g.components[j].ifaceName })
	return nil
}

// weaverEmbedding matches weaver.Implements[T] and weaver.WithRouter[T],
// returning the kind ("Implements", "WithRouter") and T.
func weaverEmbedding(t types.Type) (kind string, arg types.Type) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.TypeArgs().Len() != 1 {
		return "", nil
	}
	if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == WeaverImportPath &&
		(obj.Name() == "Implements" || obj.Name() == "WithRouter") {
		return obj.Name(), n.TypeArgs().At(0)
	}
	return "", nil
}

// localNamed returns t as a named type declared in the package, or nil.
func (g *generator) localNamed(t types.Type) *types.Named {
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() == g.tpkg {
		return n
	}
	return nil
}

// component builds the component that impl implements, checking its
// interface and router.
func (g *generator) component(impl string, ifaceT, routerT types.Type, docs map[token.Pos]*ast.CommentGroup) (*component, error) {
	named := g.localNamed(ifaceT)
	if named == nil {
		return nil, fmt.Errorf("generate: %s: weaver.Implements argument must be an interface declared in the same package", impl)
	}
	c := &component{ifaceName: named.Obj().Name(), implName: impl}
	it, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("generate: %s embeds weaver.Implements[%s], but interface %s is not declared in this package", impl, c.ifaceName, c.ifaceName)
	}
	if it.NumEmbeddeds() > 0 {
		return nil, fmt.Errorf("generate: interface %s embeds other interfaces, which is unsupported", c.ifaceName)
	}
	if it.NumExplicitMethods() == 0 {
		return nil, fmt.Errorf("generate: component interface %s has no methods", c.ifaceName)
	}
	byName := map[string]*method{}
	for i := 0; i < it.NumExplicitMethods(); i++ {
		fn := it.ExplicitMethod(i)
		m, err := g.method(c.ifaceName, fn, docs[fn.Pos()])
		if err != nil {
			return nil, err
		}
		c.methods = append(c.methods, m)
		byName[m.name] = m
	}
	sort.Slice(c.methods, func(i, j int) bool { return c.methods[i].name < c.methods[j].name })

	if routerT == nil {
		return c, nil
	}
	router := g.localNamed(routerT)
	if router == nil {
		return nil, fmt.Errorf("generate: %s: weaver.WithRouter argument must be a type declared in the same package", impl)
	}
	c.routerName = router.Obj().Name()
	if router.NumMethods() == 0 {
		return nil, fmt.Errorf("generate: %s: router %s has no methods", impl, c.routerName)
	}
	var names []string
	for i := 0; i < router.NumMethods(); i++ {
		names = append(names, router.Method(i).Name())
	}
	sort.Strings(names)
	for _, rm := range names {
		m, ok := byName[rm]
		if !ok {
			return nil, fmt.Errorf("generate: router %s has method %s that %s does not", c.routerName, rm, c.ifaceName)
		}
		m.routed = true
	}
	return c, nil
}

// method validates one interface method and checks that every parameter
// and result can cross the wire.
func (g *generator) method(iface string, fn *types.Func, doc *ast.CommentGroup) (*method, error) {
	name := fn.Name()
	badSig := func(why string) error {
		return fmt.Errorf("generate: %s.%s: %s (component methods must look like M(ctx context.Context, ...) (..., error))", iface, name, why)
	}
	sig := fn.Type().(*types.Signature)
	params, results := sig.Params(), sig.Results()
	if params.Len() == 0 || !isNamed(params.At(0).Type(), "context", "Context") {
		return nil, badSig("first parameter is not context.Context")
	}
	if results.Len() == 0 || !types.Identical(results.At(results.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		return nil, badSig("last result is not error")
	}

	m := &method{name: name, variadic: sig.Variadic(), noRetry: hasDirective(doc, "weaver:noretry")}
	for i := 1; i < params.Len(); i++ {
		t := params.At(i).Type()
		if err := g.codecs.check(t); err != nil {
			return nil, fmt.Errorf("generate: %s.%s: parameter %d: %w", iface, name, i, err)
		}
		m.params = append(m.params, t)
	}
	for i := 0; i < results.Len()-1; i++ {
		t := results.At(i).Type()
		if err := g.codecs.check(t); err != nil {
			return nil, fmt.Errorf("generate: %s.%s: result %d: %w", iface, name, i, err)
		}
		m.results = append(m.results, t)
	}
	var err error
	m.priority, err = priorityDirective(iface, name, doc)
	return m, err
}

// methodDocs maps the position of each interface method's name, which is
// the position go/types gives the method, to its doc comment: the one
// place the //weaver: directives are read from source.
func methodDocs(files []*ast.File) map[token.Pos]*ast.CommentGroup {
	docs := map[token.Pos]*ast.CommentGroup{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						docs[name.Pos()] = m.Doc
					}
				}
			}
			return true
		})
	}
	return docs
}

// hasDirective reports whether a doc comment contains a //weaver:<name>
// directive line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive {
			return true
		}
	}
	return false
}

// priorityDirective parses a //weaver:priority=<class> directive in a
// method's doc comment into the admission class the generated MethodSpec
// carries (mirroring the rpc package's numbering). Absent directive means
// normal (0).
func priorityDirective(iface, method string, doc *ast.CommentGroup) (int, error) {
	if doc == nil {
		return 0, nil
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "weaver:priority=") {
			continue
		}
		switch class := strings.TrimPrefix(text, "weaver:priority="); class {
		case "low":
			return 1, nil
		case "normal":
			return 0, nil
		case "high":
			return 2, nil
		case "critical":
			return 3, nil
		default:
			return 0, fmt.Errorf("generate: %s.%s: unknown priority class %q (want low, normal, high, or critical)", iface, method, class)
		}
	}
	return 0, nil
}

func sortedFiles(pkg *ast.Package) []*ast.File {
	names := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*ast.File, 0, len(names))
	for _, n := range names {
		out = append(out, pkg.Files[n])
	}
	return out
}

// qualifier names an imported package in the generated file, registering
// the import.
func (g *generator) qualifier(p *types.Package) string {
	if p.Path() == g.pkgPath {
		return ""
	}
	return g.importAs(p.Path(), p.Name())
}

// importAs registers an import of path in the generated file and returns
// its local name: name, or a fresh one if another path already holds name.
func (g *generator) importAs(path, name string) string {
	if alias, ok := g.imports[path]; ok {
		return alias
	}
	taken := map[string]bool{}
	for _, a := range g.imports {
		taken[a] = true
	}
	alias := name
	for i := 2; taken[alias]; i++ {
		alias = fmt.Sprintf("%s%d", name, i)
	}
	g.imports[path] = alias
	return alias
}

// typeExpr spells t in the generated file.
func (g *generator) typeExpr(t types.Type) string { return types.TypeString(t, g.qualifier) }

// emit renders the generated file.
func (g *generator) emit() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by weavergen. DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", g.tpkg.Name())

	// The emitter spells these packages by their names, so they take their
	// names before any type's package can.
	mandatory := []string{"context", "reflect", "repro/internal/codec", "repro/internal/codegen", WeaverImportPath}
	for _, c := range g.components {
		if c.routerName != "" {
			mandatory = append(mandatory, "repro/internal/routing")
			break
		}
	}
	for _, p := range mandatory {
		g.importAs(p, p[strings.LastIndexByte(p, '/')+1:])
	}

	var body bytes.Buffer
	for _, c := range g.components {
		g.emitComponent(&body, c)
	}
	if len(g.codecs.order) > 0 {
		fmt.Fprintf(&body, "// Encoders and decoders for the types reachable from component methods.\n\n")
		g.codecs.emitFuncs(&body)
	}

	paths := make([]string, 0, len(g.imports))
	for p := range g.imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fmt.Fprintf(&b, "import (\n")
	for _, p := range paths {
		alias := g.imports[p]
		base := p[strings.LastIndexByte(p, '/')+1:]
		if alias == base {
			fmt.Fprintf(&b, "\t%q\n", p)
		} else {
			fmt.Fprintf(&b, "\t%s %q\n", alias, p)
		}
	}
	fmt.Fprintf(&b, ")\n\n")
	b.Write(body.Bytes())

	out, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("generate: formatting generated code: %w\n----\n%s", err, b.String())
	}
	return out, nil
}

func (g *generator) emitComponent(b *bytes.Buffer, c *component) {
	full := g.pkgPath + "/" + c.ifaceName
	stub := lowerFirst(c.ifaceName) + "_ClientStub"

	fmt.Fprintf(b, "// Compile-time checks for component %s.\n", c.ifaceName)
	fmt.Fprintf(b, "var _ weaver.InstanceOf[%s] = (*%s)(nil)\n", c.ifaceName, c.implName)
	fmt.Fprintf(b, "var _ %s = (*%s)(nil)\n\n", c.ifaceName, c.implName)

	// Args/result structs, with generated marshal/unmarshal code (§4.2:
	// the generator "generates code to marshal and unmarshal arguments to
	// component methods"). Callers reach them through codec.Marshaler and
	// codec.Unmarshaler, with no reflection.
	for _, m := range c.methods {
		fmt.Fprintf(b, "type %s struct {\n", argsType(c, m))
		for i, p := range m.params {
			fmt.Fprintf(b, "\tP%d %s\n", i, g.typeExpr(p))
		}
		fmt.Fprintf(b, "}\n\n")
		g.codecs.emitMethods(b, argsType(c, m), fieldsOf("P", m.params))

		fmt.Fprintf(b, "type %s struct {\n", resType(c, m))
		for i, r := range m.results {
			fmt.Fprintf(b, "\tR%d %s\n", i, g.typeExpr(r))
		}
		fmt.Fprintf(b, "\tErr string\n\tHasErr bool\n}\n\n")
		resFields := append(fieldsOf("R", m.results),
			field{name: "Err", t: types.Typ[types.String]},
			field{name: "HasErr", t: types.Typ[types.Bool]})
		g.codecs.emitMethods(b, resType(c, m), resFields)

		// Pools recycle the args/results structs across calls: the stub
		// draws from them on the caller side, and the hosting path (via
		// MethodSpec.ArgsPool/ResPool) on the server side.
		fmt.Fprintf(b, "var %s_pool codegen.Pool[%s, *%s]\n", argsType(c, m), argsType(c, m), argsType(c, m))
		fmt.Fprintf(b, "var %s_pool codegen.Pool[%s, *%s]\n\n", resType(c, m), resType(c, m), resType(c, m))
	}

	// Client stub.
	fmt.Fprintf(b, "type %s struct {\n\tconn codegen.Conn\n", stub)
	for _, m := range c.methods {
		fmt.Fprintf(b, "\tm%s *codegen.MethodSpec\n", m.name)
	}
	fmt.Fprintf(b, "}\n\n")
	fmt.Fprintf(b, "var _ %s = %s{}\n\n", c.ifaceName, stub)

	for _, m := range c.methods {
		// Signature.
		fmt.Fprintf(b, "func (s %s) %s(ctx context.Context", stub, m.name)
		for i, p := range m.params {
			if m.variadic && i == len(m.params)-1 {
				fmt.Fprintf(b, ", a%d ...%s", i, g.typeExpr(p.(*types.Slice).Elem()))
			} else {
				fmt.Fprintf(b, ", a%d %s", i, g.typeExpr(p))
			}
		}
		fmt.Fprintf(b, ") (")
		for _, r := range m.results {
			fmt.Fprintf(b, "%s, ", g.typeExpr(r))
		}
		fmt.Fprintf(b, "error) {\n")

		// The args/results structs come from per-method pools and return
		// to them before the stub returns; results are extracted into
		// locals first, so callers never see pooled memory.
		fmt.Fprintf(b, "\targs := %s_pool.Get()\n", argsType(c, m))
		for i := range m.params {
			fmt.Fprintf(b, "\targs.P%d = a%d\n", i, i)
		}
		fmt.Fprintf(b, "\tres := %s_pool.Get()\n", resType(c, m))
		if m.routed {
			fmt.Fprintf(b, "\tvar router %s\n", c.routerName)
			fmt.Fprintf(b, "\tshard := routing.KeyHash(router.%s(%s))\n", m.name, strings.Join(callArgs(m, "a%d"), ", "))
			fmt.Fprintf(b, "\terr := s.conn.Invoke(ctx, %q, s.m%s, args, res, shard, true)\n", full, m.name)
		} else {
			fmt.Fprintf(b, "\terr := s.conn.Invoke(ctx, %q, s.m%s, args, res, 0, false)\n", full, m.name)
		}
		for i := range m.results {
			fmt.Fprintf(b, "\tr%d := res.R%d\n", i, i)
		}
		fmt.Fprintf(b, "\trerr := codegen.WireToError(res.Err, res.HasErr)\n")
		fmt.Fprintf(b, "\t%s_pool.Put(args)\n", argsType(c, m))
		fmt.Fprintf(b, "\t%s_pool.Put(res)\n", resType(c, m))
		fmt.Fprintf(b, "\tif err != nil {\n\t\treturn ")
		for i := range m.results {
			fmt.Fprintf(b, "r%d, ", i)
		}
		fmt.Fprintf(b, "err\n\t}\n")
		fmt.Fprintf(b, "\treturn ")
		for i := range m.results {
			fmt.Fprintf(b, "r%d, ", i)
		}
		fmt.Fprintf(b, "rerr\n}\n\n")
	}

	// Registration.
	fmt.Fprintf(b, "func init() {\n")
	for _, m := range c.methods {
		fmt.Fprintf(b, "\tm%s%s := &codegen.MethodSpec{\n", c.ifaceName, m.name)
		fmt.Fprintf(b, "\t\tName: %q,\n", m.name)
		fmt.Fprintf(b, "\t\tNewArgs: func() codegen.Message { return new(%s) },\n", argsType(c, m))
		fmt.Fprintf(b, "\t\tNewRes: func() codegen.Message { return new(%s) },\n", resType(c, m))
		fmt.Fprintf(b, "\t\tDo: func(ctx context.Context, impl, args, res any) {\n")
		fmt.Fprintf(b, "\t\t\ta := args.(*%s)\n", argsType(c, m))
		fmt.Fprintf(b, "\t\t\tr := res.(*%s)\n", resType(c, m))
		fmt.Fprintf(b, "\t\t\t_ = a\n")
		fmt.Fprintf(b, "\t\t\tvar err error\n")
		fmt.Fprintf(b, "\t\t\t")
		for i := range m.results {
			fmt.Fprintf(b, "r.R%d, ", i)
		}
		fmt.Fprintf(b, "err = impl.(%s).%s(%s)\n", c.ifaceName, m.name, strings.Join(append([]string{"ctx"}, callArgs(m, "a.P%d")...), ", "))
		fmt.Fprintf(b, "\t\t\tr.Err, r.HasErr = codegen.ErrorToWire(err)\n")
		fmt.Fprintf(b, "\t\t},\n")
		if m.noRetry {
			fmt.Fprintf(b, "\t\tNoRetry: true,\n")
		}
		if m.priority != 0 {
			fmt.Fprintf(b, "\t\tPriority: %d,\n", m.priority)
		}
		if m.routed {
			fmt.Fprintf(b, "\t\tShard: func(args any) uint64 {\n")
			fmt.Fprintf(b, "\t\t\ta := args.(*%s)\n", argsType(c, m))
			fmt.Fprintf(b, "\t\t\t_ = a\n")
			fmt.Fprintf(b, "\t\t\tvar router %s\n", c.routerName)
			fmt.Fprintf(b, "\t\t\treturn routing.KeyHash(router.%s(%s))\n", m.name, strings.Join(callArgs(m, "a.P%d"), ", "))
			fmt.Fprintf(b, "\t\t},\n")
		}
		fmt.Fprintf(b, "\t}\n")
		fmt.Fprintf(b, "\tm%s%s.ArgsPool = &%s_pool\n", c.ifaceName, m.name, argsType(c, m))
		fmt.Fprintf(b, "\tm%s%s.ResPool = &%s_pool\n", c.ifaceName, m.name, resType(c, m))
	}
	fmt.Fprintf(b, "\tcodegen.Register(codegen.Registration{\n")
	fmt.Fprintf(b, "\t\tName: %q,\n", full)
	fmt.Fprintf(b, "\t\tIface: reflect.TypeOf((*%s)(nil)).Elem(),\n", c.ifaceName)
	fmt.Fprintf(b, "\t\tImpl: reflect.TypeOf(%s{}),\n", c.implName)
	if c.routerName != "" {
		fmt.Fprintf(b, "\t\tRouted: true,\n")
	}
	fmt.Fprintf(b, "\t\tMethods: []*codegen.MethodSpec{")
	for i, m := range c.methods {
		if i > 0 {
			fmt.Fprintf(b, ", ")
		}
		fmt.Fprintf(b, "m%s%s", c.ifaceName, m.name)
	}
	fmt.Fprintf(b, "},\n")
	fmt.Fprintf(b, "\t\tClientStub: func(conn codegen.Conn) any {\n")
	fmt.Fprintf(b, "\t\t\treturn %s{conn: conn", stub)
	for _, m := range c.methods {
		fmt.Fprintf(b, ", m%s: m%s%s", m.name, c.ifaceName, m.name)
	}
	fmt.Fprintf(b, "}\n\t\t},\n")
	fmt.Fprintf(b, "\t})\n}\n\n")
}

// field names one struct field for marshal-code generation.
type field struct {
	name string
	t    types.Type
}

func fieldsOf(prefix string, ts []types.Type) []field {
	out := make([]field, len(ts))
	for i, t := range ts {
		out[i] = field{name: fmt.Sprintf("%s%d", prefix, i), t: t}
	}
	return out
}

func argsType(c *component, m *method) string {
	return lowerFirst(c.ifaceName) + "_" + m.name + "_Args"
}

func resType(c *component, m *method) string {
	return lowerFirst(c.ifaceName) + "_" + m.name + "_Res"
}

// callArgs spells a method's arguments, the i-th as format applied to i,
// spreading the variadic one.
func callArgs(m *method, format string) []string {
	parts := make([]string, len(m.params))
	for i := range m.params {
		parts[i] = fmt.Sprintf(format, i)
		if m.variadic && i == len(m.params)-1 {
			parts[i] += "..."
		}
	}
	return parts
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}
