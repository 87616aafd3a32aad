package codegen

import "sync"

// A Pool recycles pointers to T. Generated code declares one pool per
// method args/results struct so steady-state calls reuse structs instead
// of allocating them: the stub draws from the pool on the caller side, and
// the hosting path draws from it (via MethodSpec.ArgsPool/ResPool) on the
// server side.
//
// Ownership rule: a struct obtained from Get belongs to the caller until
// Put, at which point it is zeroed — so pooling never resurrects stale
// field values, and anything the struct pointed at is released to the GC.
// Callers must not retain the struct, or interior pointers (slices,
// strings, maps) read out of it, past Put.
type Pool[T any, P interface {
	*T
	Message
}] struct{ p sync.Pool }

// Get returns a zeroed *T, recycled when possible.
func (p *Pool[T, P]) Get() P {
	if v := p.p.Get(); v != nil {
		return v.(P)
	}
	return new(T)
}

// Put zeroes x and returns it to the pool.
func (p *Pool[T, P]) Put(x P) {
	if x == nil {
		return
	}
	var zero T
	*x = zero
	p.p.Put(x)
}

// GetAny and PutAny implement AnyPool.
func (p *Pool[T, P]) GetAny() Message { return p.Get() }

func (p *Pool[T, P]) PutAny(v Message) {
	if x, ok := v.(P); ok {
		p.Put(x)
	}
}

// AnyPool is the untyped view of a Pool, used where the concrete struct
// type is only known to generated code (e.g. MethodSpec).
type AnyPool interface {
	GetAny() Message
	PutAny(Message)
}
