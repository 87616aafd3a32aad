package generate

import (
	"bytes"
	"fmt"
	"go/types"
	"hash/fnv"
	"reflect"
	"strings"
)

// This file emits the serialization code for component methods (paper
// §4.2): one straight-line encode and one decode function for every type
// reachable from a method's parameters and results, in the format of
// internal/codec. Both ends of a call run the same binary (§6.1), so the
// code carries no field numbers or type descriptors. The reflective engine
// in internal/codec produces the same bytes and stays as the test oracle.

// codecGen accumulates the per-type functions the generated methods call.
type codecGen struct {
	g     *generator
	funcs map[string]string     // type identity -> function name suffix
	names map[string]bool       // function name suffixes in use
	order []types.Type          // types whose functions are emitted, in first-use order
	seen  map[*types.Named]bool // named types already checked
}

func newCodecGen(g *generator) *codecGen {
	return &codecGen{
		g:     g,
		funcs: map[string]string{},
		names: map[string]bool{},
		seen:  map[*types.Named]bool{},
	}
}

// check reports why values of type t cannot cross the wire, or nil. The
// rules mirror the reflective engine's, so a type the engine would panic on
// at run time is rejected here, at generation time.
func (c *codecGen) check(t types.Type) error {
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() != c.g.pkgPath && !obj.Exported() {
			return fmt.Errorf("type %s is not exported by its package", t)
		}
		if c.seen[n] {
			return nil
		}
		c.seen[n] = true
	}
	if c.marshaler(t) || isTime(t) {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if _, ok := basicCodecs[u.Kind()]; !ok {
			if u.Kind() == types.Invalid {
				return fmt.Errorf("cannot resolve type %s: %v", t, c.g.typeErr)
			}
			return fmt.Errorf("type %s cannot be serialized", t)
		}
	case *types.Slice:
		if isByte(u.Elem()) {
			return nil
		}
		if c.wireEmpty(u.Elem()) && !memEmpty(u.Elem()) {
			return fmt.Errorf("type %s: elements of type %s encode to no bytes but occupy memory, so a decoder cannot bound their count", t, u.Elem())
		}
		return c.check(u.Elem())
	case *types.Array:
		return c.check(u.Elem())
	case *types.Map:
		if c.wireEmpty(u.Key()) && c.wireEmpty(u.Elem()) {
			return fmt.Errorf("type %s: entries encode to no bytes, so a decoder cannot bound their count", t)
		}
		if err := c.check(u.Key()); err != nil {
			return err
		}
		return c.check(u.Elem())
	case *types.Pointer:
		return c.check(u.Elem())
	case *types.Struct:
		for _, f := range encodedFields(u) {
			if err := c.check(f.Type()); err != nil {
				return fmt.Errorf("field %s: %w", f.Name(), err)
			}
		}
	default:
		return fmt.Errorf("type %s cannot be serialized", t)
	}
	return nil
}

// marshaler reports whether t has its own codec.Marshaler/Unmarshaler
// methods, with the engine's rule: WeaverMarshal on the value, and
// WeaverUnmarshal on the pointer.
func (c *codecGen) marshaler(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	return hasCodecMethod(t, "WeaverMarshal", "Encoder") &&
		hasCodecMethod(types.NewPointer(t), "WeaverUnmarshal", "Decoder")
}

func hasCodecMethod(t types.Type, name, arg string) bool {
	sel := types.NewMethodSet(t).Lookup(nil, name)
	if sel == nil {
		return false
	}
	sig := sel.Obj().Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	p, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == arg && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "repro/internal/codec"
}

func isTime(t types.Type) bool { return isNamed(t, "time", "Time") }

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}

// isByte reports whether t is exactly byte (uint8), the element type the
// engine encodes as a length-prefixed run of raw bytes.
func isByte(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// encodedFields lists a struct's fields that cross the wire: exported ones
// without a `weaver:"-"` tag, in declaration order.
func encodedFields(s *types.Struct) []*types.Var {
	var out []*types.Var
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if f.Exported() && reflect.StructTag(s.Tag(i)).Get("weaver") != "-" {
			out = append(out, f)
		}
	}
	return out
}

// wireEmpty reports whether every value of t encodes to zero bytes; it
// matches codec's rule of the same name. A count of such elements cannot
// be bounded by the remaining input.
func (c *codecGen) wireEmpty(t types.Type) bool {
	t = types.Unalias(t)
	if c.marshaler(t) || isTime(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return u.Len() == 0 || c.wireEmpty(u.Elem())
	case *types.Struct:
		for _, f := range encodedFields(u) {
			if !c.wireEmpty(f.Type()) {
				return false
			}
		}
		return true
	}
	return false
}

// memEmpty reports whether values of t occupy no memory, so a slice of any
// length of them is allocated for free.
func memEmpty(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Array:
		return u.Len() == 0 || memEmpty(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !memEmpty(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}

// basicCodecs maps a basic kind to its Encoder/Decoder method and the Go
// type that method takes and returns.
var basicCodecs = map[types.BasicKind][2]string{
	types.Bool:       {"Bool", "bool"},
	types.String:     {"String", "string"},
	types.Int:        {"Int", "int"},
	types.Int8:       {"Int8", "int8"},
	types.Int16:      {"Int16", "int16"},
	types.Int32:      {"Int32", "int32"},
	types.Int64:      {"Int64", "int64"},
	types.Uint:       {"Uint", "uint"},
	types.Uint8:      {"Uint8", "uint8"},
	types.Uint16:     {"Uint16", "uint16"},
	types.Uint32:     {"Uint32", "uint32"},
	types.Uint64:     {"Uint64", "uint64"},
	types.Uintptr:    {"Uint64", "uint64"},
	types.Float32:    {"Float32", "float32"},
	types.Float64:    {"Float64", "float64"},
	types.Complex64:  {"Complex64", "complex64"},
	types.Complex128: {"Complex128", "complex128"},
}

// deref turns a pointer expression into the addressable value it points to.
func deref(p string) string {
	if v, ok := strings.CutPrefix(p, "&"); ok {
		return v
	}
	return "*" + p
}

// recv parenthesizes a dereferenced value for use as a method receiver.
func recv(v string) string {
	if strings.HasPrefix(v, "*") {
		return "(" + v + ")"
	}
	return v
}

// plainBasic reports whether t is the unnamed basic type spelled goType,
// which needs no conversion to or from an Encoder/Decoder method.
func plainBasic(t types.Type, goType string) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Name() == goType
}

// enc returns the statement that encodes *p, a value of type t, onto e.
func (c *codecGen) enc(t types.Type, p string) string {
	t = types.Unalias(t)
	v := deref(p)
	if c.marshaler(t) {
		return recv(v) + ".WeaverMarshal(e)"
	}
	if isTime(t) {
		return "e.Int64(" + recv(v) + ".UnixNano())"
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		m := basicCodecs[u.Kind()]
		if !plainBasic(t, m[1]) {
			v = m[1] + "(" + v + ")"
		}
		return "e." + m[0] + "(" + v + ")"
	case *types.Slice:
		if isByte(u.Elem()) {
			return "e.Bytes(" + v + ")"
		}
	}
	return "weaverEnc_" + c.funcFor(t) + "(e, " + p + ")"
}

// dec returns the statement that decodes a value of type t from d into *p.
func (c *codecGen) dec(t types.Type, p string) string {
	t = types.Unalias(t)
	v := deref(p)
	if c.marshaler(t) {
		return recv(v) + ".WeaverUnmarshal(d)"
	}
	if isTime(t) {
		return v + " = " + c.g.qualifier(t.(*types.Named).Obj().Pkg()) + ".Unix(0, d.Int64()).UTC()"
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		m := basicCodecs[u.Kind()]
		rhs := "d." + m[0] + "()"
		if !plainBasic(t, m[1]) {
			rhs = c.g.typeExpr(t) + "(" + rhs + ")"
		}
		return v + " = " + rhs
	case *types.Slice:
		if isByte(u.Elem()) {
			return v + " = d.Bytes()"
		}
	}
	return "weaverDec_" + c.funcFor(t) + "(d, " + p + ")"
}

// funcFor returns the name suffix of t's encode/decode function pair,
// scheduling the pair for emission on first use.
func (c *codecGen) funcFor(t types.Type) string {
	id := types.TypeString(t, func(p *types.Package) string { return p.Path() })
	if name, ok := c.funcs[id]; ok {
		return name
	}
	name := c.mangle(t)
	if c.names[name] {
		h := fnv.New32a()
		h.Write([]byte(id))
		name = fmt.Sprintf("%s_%08x", name, h.Sum32())
	}
	c.funcs[id] = name
	c.names[name] = true
	c.order = append(c.order, t)
	return name
}

// mangle derives a readable identifier fragment from a type.
func (c *codecGen) mangle(t types.Type) string {
	var b strings.Builder
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch u := types.Unalias(t).(type) {
		case *types.Named:
			if p := u.Obj().Pkg(); p != nil && p.Path() != c.g.pkgPath {
				b.WriteString(p.Name() + "_")
			}
			b.WriteString(u.Obj().Name())
			for i := 0; i < u.TypeArgs().Len(); i++ {
				b.WriteString("_")
				walk(u.TypeArgs().At(i))
			}
		case *types.Basic:
			b.WriteString(u.Name())
		case *types.Slice:
			b.WriteString("slice_")
			walk(u.Elem())
		case *types.Array:
			fmt.Fprintf(&b, "array%d_", u.Len())
			walk(u.Elem())
		case *types.Map:
			b.WriteString("map_")
			walk(u.Key())
			b.WriteString("_")
			walk(u.Elem())
		case *types.Pointer:
			b.WriteString("ptr_")
			walk(u.Elem())
		default:
			b.WriteString("struct")
		}
	}
	walk(t)
	return strings.Map(func(r rune) rune {
		if r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
			return r
		}
		return '_'
	}, b.String())
}

// emitMethods writes the WeaverMarshal/WeaverUnmarshal methods of a
// generated args or results struct.
func (c *codecGen) emitMethods(b *bytes.Buffer, typeName string, fields []field) {
	fmt.Fprintf(b, "// WeaverMarshal implements codec.Marshaler.\n")
	fmt.Fprintf(b, "func (x *%s) WeaverMarshal(e *codec.Encoder) {\n", typeName)
	for _, f := range fields {
		fmt.Fprintf(b, "\t%s\n", c.enc(f.t, "&x."+f.name))
	}
	fmt.Fprintf(b, "}\n\n")
	fmt.Fprintf(b, "// WeaverUnmarshal implements codec.Unmarshaler.\n")
	fmt.Fprintf(b, "func (x *%s) WeaverUnmarshal(d *codec.Decoder) {\n", typeName)
	for _, f := range fields {
		fmt.Fprintf(b, "\t%s\n", c.dec(f.t, "&x."+f.name))
	}
	fmt.Fprintf(b, "}\n\n")
}

// emitFuncs writes the encode/decode pair of every type scheduled so far,
// including the ones their bodies schedule in turn.
func (c *codecGen) emitFuncs(b *bytes.Buffer) {
	for i := 0; i < len(c.order); i++ {
		t := c.order[i]
		name := c.funcFor(t)
		texpr := c.g.typeExpr(t)
		var enc, dec bytes.Buffer
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for _, f := range encodedFields(u) {
				fmt.Fprintf(&enc, "\t%s\n", c.enc(f.Type(), "&x."+f.Name()))
				fmt.Fprintf(&dec, "\t%s\n", c.dec(f.Type(), "&x."+f.Name()))
			}
		case *types.Slice:
			if c.wireEmpty(u.Elem()) {
				// Elements carry no bytes (and, by check, no memory):
				// there is nothing to encode or decode but the count.
				fmt.Fprintf(&enc, "\te.Len64(len(*x))\n")
				fmt.Fprintf(&dec, "\t*x = make(%s, d.Count())\n", texpr)
				break
			}
			fmt.Fprintf(&enc, "\te.Len64(len(*x))\n\tfor i := range *x {\n\t\t%s\n\t}\n", c.enc(u.Elem(), "&(*x)[i]"))
			fmt.Fprintf(&dec, "\ts := make(%s, d.Len64(\"slice\"))\n\tfor i := range s {\n\t\t%s\n\t}\n\t*x = s\n", texpr, c.dec(u.Elem(), "&s[i]"))
		case *types.Array:
			fmt.Fprintf(&enc, "\tfor i := range *x {\n\t\t%s\n\t}\n", c.enc(u.Elem(), "&(*x)[i]"))
			fmt.Fprintf(&dec, "\tfor i := range *x {\n\t\t%s\n\t}\n", c.dec(u.Elem(), "&(*x)[i]"))
		case *types.Map:
			c.emitMapEnc(&enc, u)
			fmt.Fprintf(&dec, "\tn := d.Len64(\"map\")\n\tm := make(%s, n)\n\tfor i := 0; i < n; i++ {\n", texpr)
			fmt.Fprintf(&dec, "\t\tvar k %s\n\t\t%s\n", c.g.typeExpr(u.Key()), c.dec(u.Key(), "&k"))
			fmt.Fprintf(&dec, "\t\tvar v %s\n\t\t%s\n", c.g.typeExpr(u.Elem()), c.dec(u.Elem(), "&v"))
			fmt.Fprintf(&dec, "\t\tm[k] = v\n\t}\n\t*x = m\n")
		case *types.Pointer:
			fmt.Fprintf(&enc, "\tif *x == nil {\n\t\te.Present(false)\n\t\treturn\n\t}\n\te.Present(true)\n\t%s\n", c.enc(u.Elem(), "*x"))
			fmt.Fprintf(&dec, "\tif !d.Present() {\n\t\t*x = nil\n\t\treturn\n\t}\n\tp := new(%s)\n\t%s\n\t*x = p\n", c.g.typeExpr(u.Elem()), c.dec(u.Elem(), "p"))
		}
		fmt.Fprintf(b, "func weaverEnc_%s(e *codec.Encoder, x *%s) {\n%s}\n\n", name, texpr, enc.String())
		fmt.Fprintf(b, "func weaverDec_%s(d *codec.Decoder, x *%s) {\n%s}\n\n", name, texpr, dec.String())
	}
}

// emitMapEnc writes a map encoder. Keys of an ordered kind go out in
// sorted order, as the engine sorts them, so equal maps encode to equal
// bytes; other keys go out in iteration order, as with the engine.
func (c *codecGen) emitMapEnc(b *bytes.Buffer, m *types.Map) {
	fmt.Fprintf(b, "\te.Len64(len(*x))\n")
	key, ok := m.Key().Underlying().(*types.Basic)
	switch {
	case ok && key.Kind() == types.Bool:
		fmt.Fprintf(b, "\tfor _, k := range [2]%s{false, true} {\n\t\tv, ok := (*x)[k]\n\t\tif !ok {\n\t\t\tcontinue\n\t\t}\n", c.g.typeExpr(m.Key()))
	case ok && key.Info()&types.IsOrdered != 0:
		fmt.Fprintf(b, "\tkeys := make([]%s, 0, len(*x))\n\tfor k := range *x {\n\t\tkeys = append(keys, k)\n\t}\n\t%s.Sort(keys)\n", c.g.typeExpr(m.Key()), c.g.importAs("slices", "slices"))
		fmt.Fprintf(b, "\tfor _, k := range keys {\n\t\tv := (*x)[k]\n")
	default:
		fmt.Fprintf(b, "\tfor k, v := range *x {\n")
	}
	fmt.Fprintf(b, "\t\t%s\n\t\t%s\n\t}\n", c.enc(m.Key(), "&k"), c.enc(m.Elem(), "&v"))
}
