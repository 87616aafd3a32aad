package testpkg

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/codegen"
)

// The codecs weavergen generated for Kinds are checked against the
// reflective engine in internal/codec, which stays in the tree as their
// oracle. The generated args/results structs have pointer-receiver codec
// methods, so the engine walks them by reflection rather than calling the
// code under test.

// sameAsEngine decodes data into a T twice, with T's generated codec and
// with the engine. Both must fail, or both must produce equal values that
// re-encode to identical bytes.
func sameAsEngine[T any, P interface {
	*T
	codegen.Message
}](t *testing.T, data []byte) {
	t.Helper()
	var gen, eng T
	genErr := codec.Parse(data, P(&gen))
	engErr := codec.Unmarshal(data, &eng)
	if (genErr == nil) != (engErr == nil) {
		t.Fatalf("%T: generated decoder err = %v, engine err = %v", gen, genErr, engErr)
	}
	if genErr != nil {
		return
	}
	if !reflect.DeepEqual(gen, eng) {
		t.Fatalf("%T: generated decoder produced %+v, engine %+v", gen, gen, eng)
	}
	var ge, ee codec.Encoder
	P(&gen).WeaverMarshal(&ge)
	codec.EncodePtr(&ee, &eng)
	if !bytes.Equal(ge.Data(), ee.Data()) {
		t.Fatalf("%T: generated encoder wrote %x, engine %x", gen, ge.Data(), ee.Data())
	}
}

// FuzzGeneratedCodec feeds arbitrary bytes to the generated decoders of
// Echo.Mirror's args and results and to the engine. The committed corpus
// (testdata/fuzz/FuzzGeneratedCodec) holds valid encodings, truncations,
// lying counts and malformed bools; plain `go test` runs it.
func FuzzGeneratedCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsEngine[echo_Mirror_Args](t, data)
		sameAsEngine[echo_Mirror_Res](t, data)
	})
}

// fullKinds sets every field of Kinds, recursively.
func fullKinds() Kinds {
	depth := int8(-7)
	pdepth := &depth
	return Kinds{
		Names:   map[string]int32{"b": 2, "a": -1, "": 0},
		ByID:    map[int64]string{9: "nine", -3: "minus three", 0: ""},
		Flags:   map[bool]uint16{true: 1, false: 65535},
		Leaf:    &Leaf{A: 1 << 60, B: true, C: []uint32{1, 2, 3}},
		Depth:   &pdepth,
		Arr:     [3]int16{-1, 0, 1},
		Blob:    []byte{0, 1, 2, 255},
		At:      time.Unix(1700000000, 123456789).UTC(),
		TTL:     -90 * time.Second,
		Grid:    [][]string{{"a", "b"}, {}, {"c"}},
		Marks:   make([]struct{}, 5),
		Label:   "label",
		Labels:  []Label{"x", ""},
		U:       ^uint(0),
		I:       -42,
		Next:    &Kinds{Label: "inner", Marks: []struct{}{}, Grid: [][]string{nil}},
		Skipped: "not on the wire",
	}
}

func TestGeneratedCodecMatchesEngine(t *testing.T) {
	for _, v := range []Kinds{{}, fullKinds()} {
		args := echo_Mirror_Args{P0: v}
		var gen, eng codec.Encoder
		args.WeaverMarshal(&gen)
		codec.EncodePtr(&eng, &args)
		if !bytes.Equal(gen.Data(), eng.Data()) {
			t.Fatalf("generated encoding %x, engine %x", gen.Data(), eng.Data())
		}
		sameAsEngine[echo_Mirror_Args](t, gen.Data())

		// A decoded value re-encodes to the bytes it came from.
		var back echo_Mirror_Args
		if err := codec.Parse(gen.Data(), &back); err != nil {
			t.Fatal(err)
		}
		var again codec.Encoder
		back.WeaverMarshal(&again)
		if !bytes.Equal(again.Data(), gen.Data()) {
			t.Errorf("re-encoding %x, want %x", again.Data(), gen.Data())
		}
		if back.P0.Skipped != "" {
			t.Errorf("weaver:\"-\" field crossed the wire: %q", back.P0.Skipped)
		}
	}
}
