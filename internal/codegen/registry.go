// Package codegen is the runtime support library for code produced by
// cmd/weavergen (paper §4.2). Generated files register each component's
// interface, implementation, method table, and stub constructors here; the
// weaver runtime consults the registry to wire applications together.
//
// The method table is designed so that no transport performs reflection on
// the hot path: for every component method the generator emits
//
//   - an args struct and a results struct, each a Message whose generated
//     WeaverMarshal/WeaverUnmarshal methods are the data plane's codec
//     (the JSON baseline serializes the same structs),
//   - a Do closure that type-asserts the implementation and argument
//     struct to their concrete types and performs a direct method call.
package codegen

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"repro/internal/codec"
)

// A MethodSpec describes one method of a component interface.
type MethodSpec struct {
	// Name is the bare method name, e.g. "Greet".
	Name string

	// Index is the method's position in its Registration's Methods, set
	// by Register. The runtime keys its per-method call-site state (metric
	// handles, cached wire ids) by it, so a call looks nothing up by name.
	Index int

	// NewArgs returns a pointer to a fresh args struct for this method.
	NewArgs func() Message

	// NewRes returns a pointer to a fresh results struct.
	NewRes func() Message

	// Do invokes the method on impl with the given args struct, filling
	// the caller-provided results struct. Application errors are recorded
	// inside the results struct, not returned, so they can cross the wire.
	Do func(ctx context.Context, impl, args, res any)

	// Shard extracts the routing key hash from an args struct, for routed
	// components. Nil for unrouted methods.
	Shard func(args any) uint64

	// NoRetry marks the method as non-idempotent: the runtime must not
	// retry it on transport failures, preserving at-most-once execution.
	// Declared with a "weaver:noretry" directive in the method's doc
	// comment.
	NoRetry bool

	// Priority is the method's admission class, mirroring the rpc
	// package's numbering (0 normal, 1 low, 2 high, 3 critical) without
	// importing it. Declared with a "weaver:priority=low|high|critical"
	// directive in the method's doc comment; under server overload, lower
	// classes are shed first and the class rides the wire with each call.
	Priority int

	// ArgsPool and ResPool, when non-nil, recycle this method's args and
	// results structs (see Pool). The hosting path uses them to serve a
	// steady-state call without allocating either struct; NewArgs/NewRes
	// remain the fallback for transports that retain the structs.
	ArgsPool AnyPool
	ResPool  AnyPool
}

// A Message is a method's generated args or results struct, which encodes
// and decodes itself with the straight-line code weavergen emitted for it.
type Message interface {
	codec.Marshaler
	codec.Unmarshaler
}

// A Conn delivers method invocations to a (possibly remote) component
// implementation. The weaver data plane, the HTTP/JSON baseline, and the
// in-process local path all implement Conn.
type Conn interface {
	// Invoke calls method m of the named component. args is a pointer to
	// the method's args struct; res is a pointer to its results struct,
	// filled in on success. hasShard reports whether shard carries a
	// routing affinity key.
	Invoke(ctx context.Context, component string, m *MethodSpec, args codec.Marshaler, res codec.Unmarshaler, shard uint64, hasShard bool) error
}

// A Registration records everything the runtime needs to know about one
// component. Generated code (or, in tests, hand-written code) constructs
// one Registration per component and passes it to Register.
type Registration struct {
	// Name is the component's full name, e.g.
	// "repro/internal/boutique/CartService".
	Name string

	// Iface is the component's interface type.
	Iface reflect.Type

	// Impl is the concrete implementation struct type (not a pointer).
	Impl reflect.Type

	// Routed reports whether calls to this component use affinity routing.
	Routed bool

	// Methods lists the component's methods sorted by name.
	Methods []*MethodSpec

	// ClientStub returns a value implementing Iface that forwards every
	// method call through conn.
	ClientStub func(conn Conn) any
}

// Validate checks internal consistency of a registration.
func (r *Registration) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("codegen: registration with empty name")
	}
	if r.Iface == nil || r.Iface.Kind() != reflect.Interface {
		return fmt.Errorf("codegen: %s: Iface must be an interface type", r.Name)
	}
	if r.Impl == nil || r.Impl.Kind() != reflect.Struct {
		return fmt.Errorf("codegen: %s: Impl must be a struct type", r.Name)
	}
	if !reflect.PointerTo(r.Impl).Implements(r.Iface) {
		return fmt.Errorf("codegen: %s: *%v does not implement %v", r.Name, r.Impl, r.Iface)
	}
	if r.ClientStub == nil {
		return fmt.Errorf("codegen: %s: missing ClientStub", r.Name)
	}
	seen := map[string]bool{}
	for _, m := range r.Methods {
		if m.Name == "" || m.NewArgs == nil || m.NewRes == nil || m.Do == nil {
			return fmt.Errorf("codegen: %s: malformed method spec %q", r.Name, m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("codegen: %s: duplicate method %q", r.Name, m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// Method returns the spec for the named method, or nil.
func (r *Registration) Method(name string) *MethodSpec {
	for _, m := range r.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// FullMethod returns the wire name of a method of this component.
func (r *Registration) FullMethod(m string) string { return r.Name + "." + m }

var (
	regMu    sync.RWMutex
	registry = map[string]*Registration{}
	byIface  = map[reflect.Type]*Registration{}
)

// Register adds a component registration. Generated files call Register
// from init functions. It panics on invalid or duplicate registrations,
// surfacing programmer errors at process start.
func Register(r Registration) {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[r.Name]; ok {
		panic(fmt.Sprintf("codegen: component %q registered twice", r.Name))
	}
	if _, ok := byIface[r.Iface]; ok {
		panic(fmt.Sprintf("codegen: interface %v registered twice", r.Iface))
	}
	cp := r
	sort.Slice(cp.Methods, func(i, j int) bool { return cp.Methods[i].Name < cp.Methods[j].Name })
	for i, m := range cp.Methods {
		m.Index = i
	}
	registry[r.Name] = &cp
	byIface[r.Iface] = &cp
}

// Find returns the registration with the given full name.
func Find(name string) (*Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// FindByInterface returns the registration for the given interface type.
func FindByInterface(t reflect.Type) (*Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := byIface[t]
	return r, ok
}

// All returns every registration, sorted by name. The sort order is the
// canonical component order used for deterministic placement decisions.
func All() []*Registration {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Registration, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ClearForTesting removes all registrations. Only tests may call it.
func ClearForTesting() {
	regMu.Lock()
	defer regMu.Unlock()
	registry = map[string]*Registration{}
	byIface = map[reflect.Type]*Registration{}
}
