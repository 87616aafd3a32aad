package codec

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"
)

// Marshaler is implemented by types that provide a hand-written or generated
// fast path for the weaver wire format. Auto-encoding prefers Marshaler over
// reflection when a type's value (not only its pointer) implements it. A
// Marshaler must write at least one byte: slice and map counts are bounded
// by the remaining input on that assumption.
type Marshaler interface {
	WeaverMarshal(*Encoder)
}

// Unmarshaler is the decoding counterpart of Marshaler. WeaverUnmarshal must
// be declared on a pointer receiver so the decoded value is visible to the
// caller.
type Unmarshaler interface {
	WeaverUnmarshal(*Decoder)
}

// engine is a compiled encode/decode program for one Go type. Engines are
// built once per type via reflection and cached, so the per-value cost is a
// walk over precomputed closures rather than repeated reflection queries.
type engine struct {
	enc func(*Encoder, reflect.Value)
	dec func(*Decoder, reflect.Value) // dec stores into an addressable value
}

var (
	enginesMu sync.RWMutex
	engines   = map[reflect.Type]*engine{}
)

var (
	marshalerType   = reflect.TypeOf((*Marshaler)(nil)).Elem()
	unmarshalerType = reflect.TypeOf((*Unmarshaler)(nil)).Elem()
	timeType        = reflect.TypeOf(time.Time{})
	durationType    = reflect.TypeOf(time.Duration(0))
)

// Encode serializes v onto e using the weaver wire format. It panics if v's
// type contains channels, functions, or interfaces other than error, since
// such values have no meaningful wire representation. Encode of a nil
// pointer-to-struct at the top level writes a zero presence byte.
func Encode(e *Encoder, v any) {
	if v == nil {
		panic("codec: Encode(nil)")
	}
	rv := reflect.ValueOf(v)
	engineOf(rv.Type()).enc(e, rv)
}

// Decode deserializes a value of *v's type from d, storing it through v,
// which must be a non-nil pointer. A *DecodeError panic is raised on
// malformed input; wrap calls with Catch.
func Decode(d *Decoder, v any) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		panic("codec: Decode target must be a non-nil pointer")
	}
	engineOf(rv.Type().Elem()).dec(d, rv.Elem())
}

// EncodePtr encodes the value that ptr points to, without the presence
// byte a pointer field would carry. It is the encoding counterpart of
// Decode/Unmarshal, which always write through a pointer: bytes produced by
// EncodePtr(&v) decode with Unmarshal(data, &v). Tests use it to encode a
// generated args/results struct by reflection, as the oracle for its
// generated WeaverMarshal method.
func EncodePtr(e *Encoder, ptr any) {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		panic("codec: EncodePtr target must be a non-nil pointer")
	}
	engineOf(rv.Type().Elem()).enc(e, rv.Elem())
}

// Marshal is a convenience wrapper that encodes v into a fresh byte slice.
func Marshal(v any) []byte {
	e := GetEncoder()
	Encode(e, v)
	out := make([]byte, e.Len())
	copy(out, e.Data())
	PutEncoder(e)
	return out
}

// Unmarshal decodes data into v (a non-nil pointer), returning an error for
// malformed input or trailing garbage.
func Unmarshal(data []byte, v any) (err error) {
	defer Catch(&err)
	d := NewDecoder(data)
	Decode(d, v)
	if !d.Done() {
		return &DecodeError{Offset: d.Offset(), What: "trailing bytes"}
	}
	return nil
}

func engineOf(t reflect.Type) *engine {
	enginesMu.RLock()
	eng := engines[t]
	enginesMu.RUnlock()
	if eng != nil {
		return eng
	}

	enginesMu.Lock()
	defer enginesMu.Unlock()
	return engineOfLocked(t)
}

// engineOfLocked builds (or returns) the engine for t with enginesMu held.
// Recursive types are handled by installing a forwarding engine before
// compiling the type's body.
func engineOfLocked(t reflect.Type) *engine {
	if eng := engines[t]; eng != nil {
		return eng
	}
	// Install a placeholder that forwards to the real engine so that
	// self-referential types (e.g. linked lists) terminate.
	fwd := &engine{}
	engines[t] = fwd
	real := compile(t)
	fwd.enc = real.enc
	fwd.dec = real.dec
	return fwd
}

func compile(t reflect.Type) engine {
	// Custom marshalers take precedence. Detect them on the type or its
	// pointer: WeaverUnmarshal is conventionally on *T.
	if t.Implements(marshalerType) && reflect.PointerTo(t).Implements(unmarshalerType) {
		return engine{
			enc: func(e *Encoder, v reflect.Value) {
				v.Interface().(Marshaler).WeaverMarshal(e)
			},
			dec: func(d *Decoder, v reflect.Value) {
				v.Addr().Interface().(Unmarshaler).WeaverUnmarshal(d)
			},
		}
	}

	switch t {
	case timeType:
		return engine{
			enc: func(e *Encoder, v reflect.Value) {
				tm := v.Interface().(time.Time)
				e.Int64(tm.UnixNano())
			},
			dec: func(d *Decoder, v reflect.Value) {
				v.Set(reflect.ValueOf(time.Unix(0, d.Int64()).UTC()))
			},
		}
	case durationType:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Int64(v.Int()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetInt(d.Int64()) },
		}
	}

	switch t.Kind() {
	case reflect.Bool:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Bool(v.Bool()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetBool(d.Bool()) },
		}
	case reflect.Int8:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Int8(int8(v.Int())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetInt(int64(d.Int8())) },
		}
	case reflect.Int16:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Int16(int16(v.Int())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetInt(int64(d.Int16())) },
		}
	case reflect.Int32:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Int32(int32(v.Int())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetInt(int64(d.Int32())) },
		}
	case reflect.Int64, reflect.Int:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Int64(v.Int()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetInt(d.Int64()) },
		}
	case reflect.Uint8:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Uint8(uint8(v.Uint())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetUint(uint64(d.Uint8())) },
		}
	case reflect.Uint16:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Uint16(uint16(v.Uint())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetUint(uint64(d.Uint16())) },
		}
	case reflect.Uint32:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Uint32(uint32(v.Uint())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetUint(uint64(d.Uint32())) },
		}
	case reflect.Uint64, reflect.Uint, reflect.Uintptr:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Uint64(v.Uint()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetUint(d.Uint64()) },
		}
	case reflect.Float32:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Float32(float32(v.Float())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetFloat(float64(d.Float32())) },
		}
	case reflect.Float64:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Float64(v.Float()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetFloat(d.Float64()) },
		}
	case reflect.Complex64:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Complex64(complex64(v.Complex())) },
			dec: func(d *Decoder, v reflect.Value) { v.SetComplex(complex128(d.Complex64())) },
		}
	case reflect.Complex128:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.Complex128(v.Complex()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetComplex(d.Complex128()) },
		}
	case reflect.String:
		return engine{
			enc: func(e *Encoder, v reflect.Value) { e.String(v.String()) },
			dec: func(d *Decoder, v reflect.Value) { v.SetString(d.String()) },
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 && t.Elem() == reflect.TypeOf(byte(0)) {
			return engine{
				enc: func(e *Encoder, v reflect.Value) { e.Bytes(v.Bytes()) },
				dec: func(d *Decoder, v reflect.Value) { v.SetBytes(d.Bytes()) },
			}
		}
		elem := engineOfLocked(t.Elem())
		empty := wireEmpty(t.Elem())
		return engine{
			enc: func(e *Encoder, v reflect.Value) {
				n := v.Len()
				e.Len64(n)
				if empty {
					return
				}
				for i := 0; i < n; i++ {
					elem.enc(e, v.Index(i))
				}
			},
			dec: func(d *Decoder, v reflect.Value) {
				if empty {
					// Elements carry no bytes, so there is nothing to
					// decode and no input to bound the count by.
					n := d.Count()
					v.Set(reflect.MakeSlice(t, n, n))
					return
				}
				n := d.Len64("slice")
				s := reflect.MakeSlice(t, n, n)
				for i := 0; i < n; i++ {
					elem.dec(d, s.Index(i))
				}
				v.Set(s)
			},
		}
	case reflect.Array:
		elem := engineOfLocked(t.Elem())
		n := t.Len()
		return engine{
			enc: func(e *Encoder, v reflect.Value) {
				for i := 0; i < n; i++ {
					elem.enc(e, v.Index(i))
				}
			},
			dec: func(d *Decoder, v reflect.Value) {
				for i := 0; i < n; i++ {
					elem.dec(d, v.Index(i))
				}
			},
		}
	case reflect.Map:
		return compileMap(t)
	case reflect.Pointer:
		elem := engineOfLocked(t.Elem())
		return engine{
			enc: func(e *Encoder, v reflect.Value) {
				if v.IsNil() {
					e.Present(false)
					return
				}
				e.Present(true)
				elem.enc(e, v.Elem())
			},
			dec: func(d *Decoder, v reflect.Value) {
				if !d.Present() {
					v.SetZero()
					return
				}
				p := reflect.New(t.Elem())
				elem.dec(d, p.Elem())
				v.Set(p)
			},
		}
	case reflect.Struct:
		return compileStruct(t)
	default:
		panic(fmt.Sprintf("codec: unsupported type %v (kind %v)", t, t.Kind()))
	}
}

func compileStruct(t reflect.Type) engine {
	type fieldPlan struct {
		index int
		eng   *engine
	}
	var fields []fieldPlan
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Tag.Get("weaver") == "-" {
			continue
		}
		// Unexported fields are skipped: components exchange exported data.
		if !f.IsExported() {
			continue
		}
		fields = append(fields, fieldPlan{index: i, eng: engineOfLocked(f.Type)})
	}
	return engine{
		enc: func(e *Encoder, v reflect.Value) {
			for _, f := range fields {
				f.eng.enc(e, v.Field(f.index))
			}
		},
		dec: func(d *Decoder, v reflect.Value) {
			for _, f := range fields {
				f.eng.dec(d, v.Field(f.index))
			}
		},
	}
}

func compileMap(t reflect.Type) engine {
	key := engineOfLocked(t.Key())
	elem := engineOfLocked(t.Elem())
	keyLess := lessFunc(t.Key())
	empty := wireEmpty(t.Key()) && wireEmpty(t.Elem())
	return engine{
		enc: func(e *Encoder, v reflect.Value) {
			n := v.Len()
			e.Len64(n)
			keys := v.MapKeys()
			if keyLess != nil {
				sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
			}
			for _, k := range keys {
				key.enc(e, k)
				elem.enc(e, v.MapIndex(k))
			}
		},
		dec: func(d *Decoder, v reflect.Value) {
			var n int
			if empty {
				n = d.Count()
			} else {
				n = d.Len64("map")
			}
			m := reflect.MakeMapWithSize(t, min(n, 1024))
			kp := reflect.New(t.Key()).Elem()
			vp := reflect.New(t.Elem()).Elem()
			for i := 0; i < n; i++ {
				kp.SetZero()
				vp.SetZero()
				key.dec(d, kp)
				elem.dec(d, vp)
				m.SetMapIndex(kp, vp)
			}
			v.Set(m)
		},
	}
}

// wireEmpty reports whether every value of type t encodes to zero bytes: a
// struct with nothing to encode, or an array of such values or of length
// zero. A count of such elements cannot be bounded by the remaining input,
// unlike every other count, which Decoder.Len64 bounds before allocating.
// A Marshaler is assumed to write at least one byte.
func wireEmpty(t reflect.Type) bool {
	if t.Implements(marshalerType) && reflect.PointerTo(t).Implements(unmarshalerType) {
		return false
	}
	switch t.Kind() {
	case reflect.Array:
		return t.Len() == 0 || wireEmpty(t.Elem())
	case reflect.Struct:
		if t == timeType {
			return false
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.IsExported() && f.Tag.Get("weaver") != "-" && !wireEmpty(f.Type) {
				return false
			}
		}
		return true
	}
	return false
}

// lessFunc returns an ordering for map keys of type t, or nil when keys of
// that type have no cheap total order (encoding is then iteration-ordered,
// i.e. nondeterministic, which callers must not rely on).
func lessFunc(t reflect.Type) func(a, b reflect.Value) bool {
	switch t.Kind() {
	case reflect.String:
		return func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	case reflect.Float32, reflect.Float64:
		return func(a, b reflect.Value) bool { return a.Float() < b.Float() }
	case reflect.Bool:
		return func(a, b reflect.Value) bool { return !a.Bool() && b.Bool() }
	default:
		return nil
	}
}
