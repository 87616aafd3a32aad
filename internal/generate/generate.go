// Package generate implements the weaver code generator (paper §4.2).
//
// The generator inspects a package's source for implementation structs that
// embed weaver.Implements[T]. For every discovered component it emits, into
// weaver_gen.go in the same package:
//
//   - an args struct and a results struct per method, whose
//     WeaverMarshal/WeaverUnmarshal methods are the data plane's codec (the
//     JSON baseline serializes the same structs);
//   - one straight-line encode and one decode function for every type
//     reachable from a method's parameters and results (codecs.go), found
//     by type-checking the package with go/types. No reflection runs on a
//     call; a type the wire format cannot carry is a generation-time error;
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
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
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
	params   []param // excluding the leading context
	results  []param // excluding the trailing error
	variadic bool    // last param is variadic
	routed   bool    // router has a matching method
	noRetry  bool    // "weaver:noretry" directive in the doc comment
	priority int     // "weaver:priority=..." directive (0 normal, 1 low, 2 high, 3 critical)
}

type param struct {
	name string     // synthesized names a0, a1, ...
	typ  string     // printed type expression
	t    types.Type // type-checked type
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

	g := &generator{
		fset:    fset,
		pkg:     pkg,
		pkgPath: pkgPath,
		imports: map[string]string{},
	}
	if err := g.scan(); err != nil {
		return nil, err
	}
	if len(g.components) == 0 {
		return nil, nil
	}
	g.loadTypes(opts.Dir)
	g.codecs = newCodecGen(g)
	for _, c := range g.components {
		for _, m := range c.methods {
			if err := g.codecs.fieldTypes(c.ifaceName, m); err != nil {
				return nil, err
			}
		}
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
	fset       *token.FileSet
	pkg        *ast.Package
	pkgPath    string
	components []*component
	// imports maps import path -> local alias used in the generated file.
	imports map[string]string
	// fileImports maps each parsed file to its import table
	// (local name -> path).
	fileImportsCache map[*ast.File]map[string]string

	tpkg    *types.Package // the type-checked package
	typeErr error          // first type-checking error, if any
	codecs  *codecGen
}

// scan walks the package, discovering components.
func (g *generator) scan() error {
	ifaces := map[string]*ast.InterfaceType{}
	routerMethods := map[string]map[string]*ast.FuncDecl{} // router type -> method -> decl
	type embedding struct {
		implName   string
		ifaceName  string
		routerName string
		file       *ast.File
	}
	var embeddings []embedding
	implsSeen := map[string]string{} // iface -> impl

	// Pass 1: collect interface decls and router method decls.
	for _, file := range sortedFiles(g.pkg) {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						ifaces[ts.Name.Name] = it
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) != 1 {
					continue
				}
				recv := baseTypeName(d.Recv.List[0].Type)
				if recv == "" {
					continue
				}
				if routerMethods[recv] == nil {
					routerMethods[recv] = map[string]*ast.FuncDecl{}
				}
				routerMethods[recv][d.Name.Name] = d
			}
		}
	}

	// Pass 2: find Implements / WithRouter embeddings in struct decls.
	for _, file := range sortedFiles(g.pkg) {
		weaverNames := g.weaverLocalNames(file)
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var emb embedding
				emb.implName = ts.Name.Name
				emb.file = file
				for _, f := range st.Fields.List {
					if len(f.Names) != 0 {
						continue // named field, not an embedding
					}
					kind, arg := weaverGeneric(f.Type, weaverNames)
					switch kind {
					case "Implements":
						id, ok := arg.(*ast.Ident)
						if !ok {
							return fmt.Errorf("generate: %s: weaver.Implements argument must be an interface declared in the same package", emb.implName)
						}
						emb.ifaceName = id.Name
					case "WithRouter":
						id, ok := arg.(*ast.Ident)
						if !ok {
							return fmt.Errorf("generate: %s: weaver.WithRouter argument must be a type declared in the same package", emb.implName)
						}
						emb.routerName = id.Name
					}
				}
				if emb.ifaceName != "" {
					if prev, dup := implsSeen[emb.ifaceName]; dup {
						return fmt.Errorf("generate: interface %s implemented by both %s and %s", emb.ifaceName, prev, emb.implName)
					}
					implsSeen[emb.ifaceName] = emb.implName
					embeddings = append(embeddings, emb)
				}
			}
		}
	}

	sort.Slice(embeddings, func(i, j int) bool { return embeddings[i].ifaceName < embeddings[j].ifaceName })

	for _, emb := range embeddings {
		it, ok := ifaces[emb.ifaceName]
		if !ok {
			return fmt.Errorf("generate: %s embeds weaver.Implements[%s], but interface %s is not declared in this package", emb.implName, emb.ifaceName, emb.ifaceName)
		}
		c := &component{ifaceName: emb.ifaceName, implName: emb.implName, routerName: emb.routerName}
		declFile := g.fileDeclaring(emb.ifaceName)
		for _, f := range it.Methods.List {
			ft, ok := f.Type.(*ast.FuncType)
			if !ok {
				return fmt.Errorf("generate: interface %s embeds other interfaces, which is unsupported", emb.ifaceName)
			}
			for _, name := range f.Names {
				m, err := g.parseMethod(emb.ifaceName, name.Name, ft, declFile)
				if err != nil {
					return err
				}
				m.noRetry = hasDirective(f.Doc, "weaver:noretry")
				m.priority, err = priorityDirective(emb.ifaceName, name.Name, f.Doc)
				if err != nil {
					return err
				}
				c.methods = append(c.methods, m)
			}
		}
		sort.Slice(c.methods, func(i, j int) bool { return c.methods[i].name < c.methods[j].name })
		if len(c.methods) == 0 {
			return fmt.Errorf("generate: component interface %s has no methods", emb.ifaceName)
		}

		if c.routerName != "" {
			rms := routerMethods[c.routerName]
			if len(rms) == 0 {
				return fmt.Errorf("generate: %s: router %s has no methods", emb.implName, c.routerName)
			}
			byName := map[string]*method{}
			for _, m := range c.methods {
				byName[m.name] = m
			}
			for rm := range rms {
				m, ok := byName[rm]
				if !ok {
					return fmt.Errorf("generate: router %s has method %s that %s does not", c.routerName, rm, c.ifaceName)
				}
				m.routed = true
			}
		}
		g.components = append(g.components, c)
	}
	return nil
}

// parseMethod validates and captures one interface method.
func (g *generator) parseMethod(iface, name string, ft *ast.FuncType, file *ast.File) (*method, error) {
	badSig := func(why string) error {
		return fmt.Errorf("generate: %s.%s: %s (component methods must look like M(ctx context.Context, ...) (..., error))", iface, name, why)
	}
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return nil, badSig("missing context.Context parameter")
	}
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return nil, badSig("missing error result")
	}

	var flatParams []ast.Expr
	for _, f := range ft.Params.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			flatParams = append(flatParams, f.Type)
		}
	}
	if !isContextContext(flatParams[0], file) {
		return nil, badSig("first parameter is not context.Context")
	}

	var flatResults []ast.Expr
	for _, f := range ft.Results.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			flatResults = append(flatResults, f.Type)
		}
	}
	last := flatResults[len(flatResults)-1]
	if id, ok := last.(*ast.Ident); !ok || id.Name != "error" {
		return nil, badSig("last result is not error")
	}

	m := &method{name: name}
	for i, p := range flatParams[1:] {
		typ := p
		if ell, ok := typ.(*ast.Ellipsis); ok {
			if i != len(flatParams[1:])-1 {
				return nil, badSig("variadic parameter not last")
			}
			m.variadic = true
			typ = &ast.ArrayType{Elt: ell.Elt}
		}
		ts, err := g.typeString(typ, file)
		if err != nil {
			return nil, fmt.Errorf("generate: %s.%s: %w", iface, name, err)
		}
		m.params = append(m.params, param{name: fmt.Sprintf("a%d", i), typ: ts})
	}
	for i, r := range flatResults[:len(flatResults)-1] {
		ts, err := g.typeString(r, file)
		if err != nil {
			return nil, fmt.Errorf("generate: %s.%s: %w", iface, name, err)
		}
		m.results = append(m.results, param{name: fmt.Sprintf("r%d", i), typ: ts})
	}
	return m, nil
}

// typeString renders a type expression as Go source, registering any
// imports it requires in the generated file.
func (g *generator) typeString(e ast.Expr, file *ast.File) (string, error) {
	// Register imports for every qualified identifier in the expression.
	var walkErr error
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		path, ok := g.fileImports(file)[id.Name]
		if !ok {
			return true // not a package qualifier (e.g. field access)
		}
		g.addImport(path, id.Name)
		return true
	})
	if walkErr != nil {
		return "", walkErr
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, g.fset, e); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// addImport records that the generated file needs the given import,
// preserving the alias used in the source.
func (g *generator) addImport(path, alias string) {
	if cur, ok := g.imports[path]; ok {
		_ = cur
		return
	}
	g.imports[path] = alias
}

// fileImports returns the local-name -> path import table of a file.
func (g *generator) fileImports(file *ast.File) map[string]string {
	if g.fileImportsCache == nil {
		g.fileImportsCache = map[*ast.File]map[string]string{}
	}
	if t, ok := g.fileImportsCache[file]; ok {
		return t
	}
	t := map[string]string{}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else {
			name = path[strings.LastIndexByte(path, '/')+1:]
		}
		if name == "_" || name == "." {
			continue
		}
		t[name] = path
	}
	g.fileImportsCache[file] = t
	return t
}

// weaverLocalNames returns the set of local names under which the weaver
// package is imported in a file.
func (g *generator) weaverLocalNames(file *ast.File) map[string]bool {
	names := map[string]bool{}
	for name, path := range g.fileImports(file) {
		if path == WeaverImportPath {
			names[name] = true
		}
	}
	return names
}

// weaverGeneric matches expressions of the form weaver.Kind[Arg], returning
// the kind ("Implements", "WithRouter") and type argument.
func weaverGeneric(e ast.Expr, weaverNames map[string]bool) (kind string, arg ast.Expr) {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return "", nil
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !weaverNames[id.Name] {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Implements", "WithRouter":
		return sel.Sel.Name, ix.Index
	}
	return "", nil
}

// isContextContext reports whether e denotes context.Context in file.
func isContextContext(e ast.Expr, file *ast.File) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
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

// baseTypeName returns the identifier of a receiver type ("T" or "*T").
func baseTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// fileDeclaring returns the file containing the declaration of a named type.
func (g *generator) fileDeclaring(typeName string) *ast.File {
	for _, file := range sortedFiles(g.pkg) {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == typeName {
					return file
				}
			}
		}
	}
	return nil
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

// emit renders the generated file.
func (g *generator) emit() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by weavergen. DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", g.pkg.Name)

	// Mandatory imports.
	g.addImport("context", "context")
	g.addImport("reflect", "reflect")
	g.addImport("repro/internal/codegen", "codegen")
	g.addImport("repro/weaver", "weaver")
	needRouting := false
	for _, c := range g.components {
		for _, m := range c.methods {
			if m.routed {
				needRouting = true
			}
		}
	}
	if needRouting {
		g.addImport("repro/internal/routing", "routing")
	}

	// Render component bodies first: they may register further imports
	// (e.g. the codec for generated marshalers).
	var body bytes.Buffer
	for _, c := range g.components {
		g.emitComponent(&body, c)
	}
	g.addImport("repro/internal/codec", "codec")
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
			fmt.Fprintf(b, "\tP%d %s\n", i, p.typ)
		}
		fmt.Fprintf(b, "}\n\n")
		g.codecs.emitMethods(b, argsType(c, m), fieldsOf("P", m.params))

		fmt.Fprintf(b, "type %s struct {\n", resType(c, m))
		for i, r := range m.results {
			fmt.Fprintf(b, "\tR%d %s\n", i, r.typ)
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
				fmt.Fprintf(b, ", %s ...%s", p.name, strings.TrimPrefix(p.typ, "[]"))
			} else {
				fmt.Fprintf(b, ", %s %s", p.name, p.typ)
			}
		}
		fmt.Fprintf(b, ") (")
		for _, r := range m.results {
			fmt.Fprintf(b, "%s, ", r.typ)
		}
		fmt.Fprintf(b, "error) {\n")

		// The args/results structs come from per-method pools and return
		// to them before the stub returns; results are extracted into
		// locals first, so callers never see pooled memory.
		fmt.Fprintf(b, "\targs := %s_pool.Get()\n", argsType(c, m))
		for i, p := range m.params {
			fmt.Fprintf(b, "\targs.P%d = %s\n", i, p.name)
		}
		fmt.Fprintf(b, "\tres := %s_pool.Get()\n", resType(c, m))
		if m.routed {
			fmt.Fprintf(b, "\tvar router %s\n", c.routerName)
			fmt.Fprintf(b, "\tshard := routing.KeyHash(router.%s(%s))\n", m.name, stubRouterArgs(m))
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
		fmt.Fprintf(b, "err = impl.(%s).%s(ctx%s)\n", c.ifaceName, m.name, doCallArgs(m))
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
			fmt.Fprintf(b, "\t\t\treturn routing.KeyHash(router.%s(%s))\n", m.name, doRouterArgs(m))
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
	var noRetry []string
	for _, m := range c.methods {
		if m.noRetry {
			noRetry = append(noRetry, m.name)
		}
	}
	if len(noRetry) > 0 {
		fmt.Fprintf(b, "\t\tNoRetry: []string{")
		for i, n := range noRetry {
			if i > 0 {
				fmt.Fprintf(b, ", ")
			}
			fmt.Fprintf(b, "%q", n)
		}
		fmt.Fprintf(b, "},\n")
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

func fieldsOf(prefix string, params []param) []field {
	out := make([]field, len(params))
	for i, p := range params {
		out[i] = field{name: fmt.Sprintf("%s%d", prefix, i), t: p.t}
	}
	return out
}

func argsType(c *component, m *method) string {
	return lowerFirst(c.ifaceName) + "_" + m.name + "_Args"
}

func resType(c *component, m *method) string {
	return lowerFirst(c.ifaceName) + "_" + m.name + "_Res"
}

// stubRouterArgs renders the router call arguments inside the client stub
// (parameter names).
func stubRouterArgs(m *method) string {
	parts := make([]string, len(m.params))
	for i, p := range m.params {
		parts[i] = p.name
		if m.variadic && i == len(m.params)-1 {
			parts[i] += "..."
		}
	}
	return strings.Join(parts, ", ")
}

// doRouterArgs renders the router call arguments inside the server-side
// Shard function (args struct fields).
func doRouterArgs(m *method) string {
	parts := make([]string, len(m.params))
	for i := range m.params {
		parts[i] = fmt.Sprintf("a.P%d", i)
		if m.variadic && i == len(m.params)-1 {
			parts[i] += "..."
		}
	}
	return strings.Join(parts, ", ")
}

// doCallArgs renders the implementation call arguments inside Do.
func doCallArgs(m *method) string {
	var b strings.Builder
	for i := range m.params {
		fmt.Fprintf(&b, ", a.P%d", i)
		if m.variadic && i == len(m.params)-1 {
			b.WriteString("...")
		}
	}
	return b.String()
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}
