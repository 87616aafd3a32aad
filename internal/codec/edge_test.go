package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// Edge cases of the reflection engine beyond the basic round trips in
// codec_test.go.

func TestStructKeyedMap(t *testing.T) {
	type key struct {
		A int32
		B string
	}
	in := map[key]int{
		{A: 1, B: "x"}: 10,
		{A: 2, B: "y"}: 20,
	}
	var out map[key]int
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("out = %v", out)
	}
}

func TestPointerChain(t *testing.T) {
	v := 42
	p := &v
	in := &p // **int
	var out **int
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out == nil || *out == nil || **out != 42 {
		t.Errorf("out = %v", out)
	}

	var nilp **int
	var out2 **int
	if err := Unmarshal(Marshal(nilp), &out2); err != nil {
		t.Fatal(err)
	}
	if out2 != nil {
		t.Errorf("nil pointer decoded as %v", out2)
	}
}

func TestArrayOfStructs(t *testing.T) {
	type pt struct{ X, Y int16 }
	in := [3]pt{{1, 2}, {3, 4}, {5, 6}}
	var out [3]pt
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Errorf("out = %v", out)
	}
}

func TestEmptyStruct(t *testing.T) {
	type empty struct{}
	data := Marshal(empty{})
	if len(data) != 0 {
		t.Errorf("empty struct encoded to %d bytes", len(data))
	}
	var out empty
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
}

func TestUnsupportedTypePanics(t *testing.T) {
	for _, v := range []any{
		make(chan int),
		func() {},
		map[string]any{"x": 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Marshal(%T) did not panic", v)
				}
			}()
			Marshal(v)
		}()
	}
}

func TestDeeplyNested(t *testing.T) {
	type level3 struct{ V []map[int8][]string }
	type level2 struct {
		L *level3
		M map[string][]level3
	}
	type level1 struct {
		A []level2
		B [2]*level2
	}
	// Note: nil slices and nil maps decode as empty ones (documented), so
	// the input uses empty-but-non-nil values where decode produces them.
	in := level1{
		A: []level2{{
			L: &level3{V: []map[int8][]string{{1: {"a", "b"}}, {2: {}}}},
			M: map[string][]level3{"k": {{V: []map[int8][]string{}}}},
		}},
		B: [2]*level2{nil, {L: &level3{V: []map[int8][]string{}}, M: map[string][]level3{}}},
	}
	var out level1
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("deep round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestNamedBasicTypes(t *testing.T) {
	type Celsius float64
	type ID uint32
	type tagged struct {
		T Celsius
		I ID
	}
	in := tagged{T: 36.6, I: 99}
	var out tagged
	if err := Unmarshal(Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("out = %+v", out)
	}
}

func TestEncodePtrMatchesUnmarshalContract(t *testing.T) {
	type pair struct {
		A string
		B int
	}
	in := pair{A: "x", B: 7}
	var e Encoder
	EncodePtr(&e, &in)
	var out pair
	if err := Unmarshal(e.Data(), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("out = %+v", out)
	}
}

func TestEncodePtrNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodePtr(nil) did not panic")
		}
	}()
	var e Encoder
	var p *int
	EncodePtr(&e, p)
}

// TestCountsBoundedBeforeAllocating pins how the engine reads slice and
// map counts from hostile input: a count the remaining input cannot hold
// fails with a *DecodeError before anything is allocated, and a count of
// elements that occupy no bytes decodes without a per-element loop.
func TestCountsBoundedBeforeAllocating(t *testing.T) {
	var e Encoder
	e.Varint(1 << 63) // negative as an int
	for _, target := range []any{new([]int32), new(map[string]int), new([]string)} {
		err := Unmarshal(e.Data(), target)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%T: count 1<<63 gave %v, want a *DecodeError", target, err)
		}
	}

	e.Reset()
	e.Varint(1 << 40)
	var marks []struct{}
	if err := Unmarshal(e.Data(), &marks); err != nil || len(marks) != 1<<40 {
		t.Errorf("[]struct{} with count 1<<40: len %d, err %v", len(marks), err)
	}
	if got := Marshal(marks); !bytes.Equal(got, e.Data()) {
		t.Errorf("re-encoded as %x, want %x", got, e.Data())
	}
}
