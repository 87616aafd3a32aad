// Package tagged implements a self-describing, versioned binary format in
// the style of Protocol Buffers: every field is preceded by a tag carrying a
// field number and a wire type, unknown fields are skippable, and missing
// fields decode to zero values.
//
// The package plays two roles in this repository:
//
//  1. It is the "status quo" serialization baseline in the paper's
//     evaluation (§6.1): a format that must pay for field numbers and type
//     information on every value because its producers and consumers may
//     run different versions.
//  2. It is the format of the envelope↔proclet control-plane pipe
//     (internal/pipe), which genuinely crosses versions during a rollout
//     and therefore must be evolution-tolerant — unlike the data plane,
//     which is unversioned by design.
//
// Wire format: each field is encoded as a varint tag (fieldNumber<<3 |
// wireType) followed by the payload. Wire types follow protobuf:
//
//	0 varint   (bool, integers; signed values use zigzag)
//	1 fixed64  (float64)
//	2 bytes    (string, []byte, nested message, packed repeated)
//	5 fixed32  (float32)
//
// Field numbers are assigned from struct tags `tag:"N"` or, absent a tag,
// from 1-based declaration order. Reordering or removing fields without
// fixing tags is exactly the class of versioning hazard the paper's atomic
// rollouts eliminate; the rollout experiment (EXPERIMENTS.md A5) exploits
// this.
package tagged

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/codec"
)

// Wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// Marshal encodes v, which must be a struct or pointer to struct, into the
// tagged wire format.
func Marshal(v any) ([]byte, error) { return MarshalAppend(nil, v) }

// MarshalAppend appends the tagged encoding of v, which must be a struct or
// pointer to struct, to b and returns the extended buffer. Nested messages
// are encoded in place behind their length prefix, so a caller that reuses
// b encodes without allocating once b has grown to the message size.
func MarshalAppend(b []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("tagged: Marshal of nil %v", rv.Type())
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil, fmt.Errorf("tagged: Marshal of non-struct %v", rv.Type())
	}
	prog, err := programOf(rv.Type())
	if err != nil {
		return nil, err
	}
	return prog.marshal(b, rv), nil
}

// Unmarshal decodes data into v, which must be a non-nil pointer to struct.
// Unknown fields are skipped; absent fields retain their existing values,
// so callers should pass a zeroed target.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("tagged: Unmarshal target must be a non-nil pointer")
	}
	rv = rv.Elem()
	if rv.Kind() != reflect.Struct {
		return fmt.Errorf("tagged: Unmarshal of non-struct %v", rv.Type())
	}
	prog, err := programOf(rv.Type())
	if err != nil {
		return err
	}
	return prog.unmarshal(data, rv)
}

// field describes how one struct field is encoded.
type field struct {
	num     uint64
	index   int
	kind    reflect.Kind
	typ     reflect.Type
	sub     *program // for nested structs and pointer-to-struct
	elem    *field   // for slices (repeated) and map values
	key     *field   // for map keys
	isTime  bool
	isBytes bool
}

// program is the compiled codec for one struct type.
type program struct {
	typ    reflect.Type
	fields []*field
	byNum  map[uint64]*field
}

var (
	progMu   sync.RWMutex
	programs = map[reflect.Type]*program{}
)

func programOf(t reflect.Type) (*program, error) {
	progMu.RLock()
	p := programs[t]
	progMu.RUnlock()
	if p != nil {
		return p, nil
	}
	progMu.Lock()
	defer progMu.Unlock()
	return programOfLocked(t)
}

func programOfLocked(t reflect.Type) (*program, error) {
	if p := programs[t]; p != nil {
		return p, nil
	}
	p := &program{typ: t, byNum: map[uint64]*field{}}
	programs[t] = p // pre-install for recursive types
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() || sf.Tag.Get("tag") == "-" {
			continue
		}
		num := uint64(len(p.fields) + 1)
		if tag := sf.Tag.Get("tag"); tag != "" {
			n, err := strconv.ParseUint(tag, 10, 32)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("tagged: bad tag %q on %v.%s", tag, t, sf.Name)
			}
			num = n
		}
		f, err := fieldOfLocked(num, i, sf.Type)
		if err != nil {
			return nil, fmt.Errorf("%v.%s: %w", t, sf.Name, err)
		}
		if p.byNum[num] != nil {
			return nil, fmt.Errorf("tagged: duplicate field number %d in %v", num, t)
		}
		p.fields = append(p.fields, f)
		p.byNum[num] = f
	}
	return p, nil
}

func fieldOfLocked(num uint64, index int, t reflect.Type) (*field, error) {
	f := &field{num: num, index: index, kind: t.Kind(), typ: t}
	if t == reflect.TypeOf(time.Time{}) {
		f.isTime = true
		return f, nil
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return f, nil
	case reflect.Struct:
		sub, err := programOfLocked(t)
		if err != nil {
			return nil, err
		}
		f.sub = sub
		return f, nil
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			return nil, fmt.Errorf("tagged: unsupported pointer to %v", t.Elem())
		}
		sub, err := programOfLocked(t.Elem())
		if err != nil {
			return nil, err
		}
		f.sub = sub
		return f, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			f.isBytes = true
			return f, nil
		}
		elem, err := fieldOfLocked(num, -1, t.Elem())
		if err != nil {
			return nil, err
		}
		f.elem = elem
		return f, nil
	case reflect.Map:
		key, err := fieldOfLocked(1, -1, t.Key())
		if err != nil {
			return nil, err
		}
		val, err := fieldOfLocked(2, -1, t.Elem())
		if err != nil {
			return nil, err
		}
		f.key, f.elem = key, val
		return f, nil
	default:
		return nil, fmt.Errorf("tagged: unsupported type %v", t)
	}
}

func appendTag(b []byte, num uint64, wire int) []byte {
	return binary.AppendUvarint(b, num<<3|uint64(wire))
}

// beginNested starts a length-delimited record in place: it reserves one
// length byte and returns the offset at which the record's body begins.
func beginNested(b []byte) ([]byte, int) {
	b = append(b, 0)
	return b, len(b)
}

// endNested back-fills the length of the body that began at start. A body
// under 128 bytes fits the reserved byte; a longer one is shifted right by
// the extra varint bytes its length needs. The bytes are those of encoding
// the body separately and appending its length and contents.
func endNested(b []byte, start int) []byte {
	n := len(b) - start
	if n < 0x80 {
		b[start-1] = byte(n)
		return b
	}
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(n))
	b = append(b, lenBuf[1:k]...) // grow by the extra length bytes
	copy(b[start-1+k:], b[start:start+n])
	copy(b[start-1:], lenBuf[:k])
	return b
}

// appendMessage appends field num's tag and the in-place encoding of the
// struct v.
func (p *program) appendMessage(b []byte, num uint64, v reflect.Value) []byte {
	b, start := beginNested(appendTag(b, num, wireBytes))
	return endNested(p.marshal(b, v), start)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

func (p *program) marshal(b []byte, v reflect.Value) []byte {
	for _, f := range p.fields {
		b = f.append(b, v.Field(f.index))
	}
	return b
}

// append encodes one field value (including its tag). Zero scalars are
// elided, matching proto3 semantics.
func (f *field) append(b []byte, v reflect.Value) []byte {
	if f.isTime {
		t := v.Interface().(time.Time)
		if t.IsZero() {
			return b
		}
		b = appendTag(b, f.num, wireVarint)
		return binary.AppendUvarint(b, zigzag(t.UnixNano()))
	}
	if f.isBytes {
		data := v.Bytes()
		if len(data) == 0 {
			return b
		}
		b = appendTag(b, f.num, wireBytes)
		b = binary.AppendUvarint(b, uint64(len(data)))
		return append(b, data...)
	}
	switch f.kind {
	case reflect.Bool:
		if !v.Bool() {
			return b
		}
		b = appendTag(b, f.num, wireVarint)
		return append(b, 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() == 0 {
			return b
		}
		b = appendTag(b, f.num, wireVarint)
		return binary.AppendUvarint(b, zigzag(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.Uint() == 0 {
			return b
		}
		b = appendTag(b, f.num, wireVarint)
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32:
		if v.Float() == 0 {
			return b
		}
		b = appendTag(b, f.num, wireFixed32)
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		if v.Float() == 0 {
			return b
		}
		b = appendTag(b, f.num, wireFixed64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		if s == "" {
			return b
		}
		b = appendTag(b, f.num, wireBytes)
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	case reflect.Struct:
		if v.IsZero() {
			return b
		}
		return f.sub.appendMessage(b, f.num, v)
	case reflect.Pointer:
		if v.IsNil() {
			return b
		}
		return f.sub.appendMessage(b, f.num, v.Elem())
	case reflect.Slice: // repeated: one tagged record per element
		for i := 0; i < v.Len(); i++ {
			b = f.elem.appendAlways(b, v.Index(i))
		}
		return b
	case reflect.Map: // repeated nested (key, value) entries
		iter := v.MapRange()
		for iter.Next() {
			var start int
			b, start = beginNested(appendTag(b, f.num, wireBytes))
			b = f.key.appendAlways(b, iter.Key())
			b = f.elem.appendAlways(b, iter.Value())
			b = endNested(b, start)
		}
		return b
	}
	panic(fmt.Sprintf("tagged: unreachable kind %v", f.kind))
}

// appendAlways encodes a value even if it is the zero value; needed for
// repeated elements and map entries where elision would drop items.
func (f *field) appendAlways(b []byte, v reflect.Value) []byte {
	if f.isTime {
		b = appendTag(b, f.num, wireVarint)
		return binary.AppendUvarint(b, zigzag(v.Interface().(time.Time).UnixNano()))
	}
	if f.isBytes {
		data := v.Bytes()
		b = appendTag(b, f.num, wireBytes)
		b = binary.AppendUvarint(b, uint64(len(data)))
		return append(b, data...)
	}
	switch f.kind {
	case reflect.Bool:
		b = appendTag(b, f.num, wireVarint)
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = appendTag(b, f.num, wireVarint)
		return binary.AppendUvarint(b, zigzag(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b = appendTag(b, f.num, wireVarint)
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32:
		b = appendTag(b, f.num, wireFixed32)
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		b = appendTag(b, f.num, wireFixed64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		b = appendTag(b, f.num, wireBytes)
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	case reflect.Struct:
		return f.sub.appendMessage(b, f.num, v)
	case reflect.Pointer:
		if v.IsNil() {
			b = appendTag(b, f.num, wireBytes)
			return append(b, 0)
		}
		return f.sub.appendMessage(b, f.num, v.Elem())
	}
	return f.append(b, v)
}

func (p *program) unmarshal(data []byte, v reflect.Value) error {
	for len(data) > 0 {
		tag, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("tagged: bad tag in %v", p.typ)
		}
		data = data[n:]
		num, wire := tag>>3, int(tag&7)
		f := p.byNum[num]
		if f == nil {
			rest, err := skip(data, wire)
			if err != nil {
				return fmt.Errorf("tagged: skipping field %d in %v: %w", num, p.typ, err)
			}
			data = rest
			continue
		}
		fv := v.Field(f.index)
		if f.elem != nil && f.kind == reflect.Slice && fv.Len() == fv.Cap() {
			// A repeated field about to grow: make room for all of its
			// records in this message at once.
			fv.Grow(countRecords(data, wire, tag))
		}
		rest, err := f.decode(data, wire, fv)
		if err != nil {
			return fmt.Errorf("tagged: field %d in %v: %w", num, p.typ, err)
		}
		data = rest
	}
	return nil
}

// countRecords counts the records tagged tag in a message body: the one
// whose payload, of wire type wire, data begins with, and every later one.
// It stops at the first record it cannot skip; the decoder reports that.
func countRecords(data []byte, wire int, tag uint64) int {
	n := 1
	for {
		rest, err := skip(data, wire)
		if err != nil {
			return n
		}
		t, k := binary.Uvarint(rest)
		if k <= 0 {
			return n
		}
		if t == tag {
			n++
		}
		data, wire = rest[k:], int(t&7)
	}
}

func skip(data []byte, wire int) ([]byte, error) {
	switch wire {
	case wireVarint:
		_, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad varint")
		}
		return data[n:], nil
	case wireFixed64:
		if len(data) < 8 {
			return nil, fmt.Errorf("short fixed64")
		}
		return data[8:], nil
	case wireFixed32:
		if len(data) < 4 {
			return nil, fmt.Errorf("short fixed32")
		}
		return data[4:], nil
	case wireBytes:
		l, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < l {
			return nil, fmt.Errorf("bad bytes length")
		}
		return data[n+int(l):], nil
	default:
		return nil, fmt.Errorf("unknown wire type %d", wire)
	}
}

func (f *field) decode(data []byte, wire int, v reflect.Value) ([]byte, error) {
	// Repeated fields receive one element per record, decoded in place
	// into the slot the slice grows by.
	if f.kind == reflect.Slice && !f.isBytes {
		n := v.Len()
		if n == v.Cap() {
			v.Grow(1)
		}
		v.SetLen(n + 1)
		elem := v.Index(n)
		elem.SetZero()
		rest, err := f.elem.decode(data, wire, elem)
		if err != nil {
			v.SetLen(n)
			return nil, err
		}
		return rest, nil
	}
	if f.kind == reflect.Map {
		payload, rest, err := takeBytes(data)
		if err != nil {
			return nil, err
		}
		kv := reflect.New(f.typ.Key()).Elem()
		vv := reflect.New(f.typ.Elem()).Elem()
		for len(payload) > 0 {
			tag, n := binary.Uvarint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("bad map entry tag")
			}
			payload = payload[n:]
			num, w := tag>>3, int(tag&7)
			var err error
			switch num {
			case 1:
				payload, err = f.key.decode(payload, w, kv)
			case 2:
				payload, err = f.elem.decode(payload, w, vv)
			default:
				payload, err = skip(payload, w)
			}
			if err != nil {
				return nil, err
			}
		}
		if v.IsNil() {
			v.Set(reflect.MakeMap(f.typ))
		}
		v.SetMapIndex(kv, vv)
		return rest, nil
	}

	if f.isTime {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad time varint")
		}
		v.Set(reflect.ValueOf(time.Unix(0, unzigzag(u)).UTC()))
		return data[n:], nil
	}
	if f.isBytes {
		payload, rest, err := takeBytes(data)
		if err != nil {
			return nil, err
		}
		out := make([]byte, len(payload))
		copy(out, payload)
		v.SetBytes(out)
		return rest, nil
	}

	switch f.kind {
	case reflect.Bool:
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad bool varint")
		}
		v.SetBool(u != 0)
		return data[n:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad int varint")
		}
		v.SetInt(unzigzag(u))
		return data[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad uint varint")
		}
		v.SetUint(u)
		return data[n:], nil
	case reflect.Float32:
		if wire != wireFixed32 || len(data) < 4 {
			return nil, fmt.Errorf("bad float32")
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		return data[4:], nil
	case reflect.Float64:
		if wire != wireFixed64 || len(data) < 8 {
			return nil, fmt.Errorf("bad float64")
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return data[8:], nil
	case reflect.String:
		payload, rest, err := takeBytes(data)
		if err != nil {
			return nil, err
		}
		v.SetString(codec.Intern(payload))
		return rest, nil
	case reflect.Struct:
		payload, rest, err := takeBytes(data)
		if err != nil {
			return nil, err
		}
		if err := f.sub.unmarshal(payload, v); err != nil {
			return nil, err
		}
		return rest, nil
	case reflect.Pointer:
		payload, rest, err := takeBytes(data)
		if err != nil {
			return nil, err
		}
		p := reflect.New(f.typ.Elem())
		if err := f.sub.unmarshal(payload, p.Elem()); err != nil {
			return nil, err
		}
		v.Set(p)
		return rest, nil
	}
	return nil, fmt.Errorf("unsupported kind %v", f.kind)
}

func takeBytes(data []byte) (payload, rest []byte, err error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return nil, nil, fmt.Errorf("bad length-delimited payload")
	}
	return data[n : n+int(l)], data[n+int(l):], nil
}
