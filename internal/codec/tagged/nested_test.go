package tagged

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// Deeper structural coverage of the tagged (proto-like) format.

type leaf struct {
	N int64  `tag:"1"`
	S string `tag:"2"`
}

type branch struct {
	Leaves []leaf          `tag:"1"`
	ByName map[string]leaf `tag:"2"`
	Self   *branch         `tag:"3"`
}

func TestNestedRepeatedMessages(t *testing.T) {
	in := branch{
		Leaves: []leaf{{N: 1, S: "a"}, {N: 2, S: "b"}, {}},
		ByName: map[string]leaf{"x": {N: 9, S: "nine"}},
		Self: &branch{
			Leaves: []leaf{{N: 3}},
		},
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out branch
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Leaves) != 3 || out.Leaves[1].S != "b" {
		t.Errorf("leaves = %+v", out.Leaves)
	}
	if out.ByName["x"].N != 9 {
		t.Errorf("map = %+v", out.ByName)
	}
	if out.Self == nil || len(out.Self.Leaves) != 1 || out.Self.Leaves[0].N != 3 {
		t.Errorf("self = %+v", out.Self)
	}
}

func TestMapOfMessagesAcrossVersions(t *testing.T) {
	// A reader that only knows half the fields still gets the map intact.
	type leafV2 struct {
		N     int64  `tag:"1"`
		S     string `tag:"2"`
		Extra bool   `tag:"3"`
	}
	type holderV2 struct {
		ByName map[string]leafV2 `tag:"2"`
	}
	in := holderV2{ByName: map[string]leafV2{"k": {N: 5, S: "five", Extra: true}}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out branch // field 2 is map[string]leaf; leaf lacks Extra
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	got, ok := out.ByName["k"]
	if !ok || got.N != 5 || got.S != "five" {
		t.Errorf("cross-version map = %+v", out.ByName)
	}
}

func TestRepeatedEmptyMessages(t *testing.T) {
	in := branch{Leaves: []leaf{{}, {}, {}}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out branch
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Leaves) != 3 {
		t.Errorf("empty repeated messages lost: %+v", out.Leaves)
	}
}

func TestDeepRecursionRoundTrip(t *testing.T) {
	// A 50-deep linked structure survives.
	root := &branch{}
	cur := root
	for i := 0; i < 50; i++ {
		cur.Self = &branch{Leaves: []leaf{{N: int64(i)}}}
		cur = cur.Self
	}
	data, err := Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var out branch
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	depth := 0
	for p := out.Self; p != nil; p = p.Self {
		if len(p.Leaves) != 1 || p.Leaves[0].N != int64(depth) {
			t.Fatalf("depth %d corrupted: %+v", depth, p.Leaves)
		}
		depth++
	}
	if depth != 50 {
		t.Errorf("depth = %d", depth)
	}
}

func TestUnsupportedTypesRejected(t *testing.T) {
	type bad1 struct {
		C chan int `tag:"1"`
	}
	if _, err := Marshal(bad1{}); err == nil {
		t.Error("chan accepted")
	}
	type bad2 struct {
		P *int `tag:"1"`
	}
	if _, err := Marshal(bad2{}); err == nil {
		t.Error("pointer-to-scalar accepted")
	}
}

func TestDeterministicForSameStruct(t *testing.T) {
	// Repeated slices are order-preserving (maps are not; skip them).
	in := branch{Leaves: []leaf{{N: 1}, {N: 2}}}
	a, _ := Marshal(in)
	b, _ := Marshal(in)
	if !reflect.DeepEqual(a, b) {
		t.Error("nondeterministic encoding for slice-only struct")
	}
}

// Nested records are encoded in place behind a one-byte length that is
// widened once the body reaches 128 bytes. Around each varint width, the
// record must carry the minimal length varint its body needs and decode
// back intact, nested two deep so an outer record shifts an inner one.
func TestInPlaceNestedLengths(t *testing.T) {
	for _, n := range []int{0, 1, 124, 125, 126, 127, 128, 129, 16380, 16381, 16384, 1 << 17} {
		in := branch{Self: &branch{Leaves: []leaf{{S: strings.Repeat("s", n)}}}}
		data, err := Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		// The outer record: field 3's tag, its length, then the body.
		l, k := binary.Uvarint(data[1:])
		if int(l) != len(data)-1-k || k != len(binary.AppendUvarint(nil, l)) {
			t.Fatalf("string of %d: outer length %d in %d bytes for a %d-byte body", n, l, k, len(data)-1-k)
		}
		var out branch
		if err := Unmarshal(data, &out); err != nil {
			t.Fatalf("string of %d: %v", n, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("string of %d: round trip changed the value", n)
		}
	}
}

// MarshalAppend appends to the buffer it is given, and a buffer reused at
// the message's size encodes without allocating.
func TestMarshalAppendReusesBuffer(t *testing.T) {
	in := &branch{Leaves: []leaf{{N: 1, S: strings.Repeat("a", 200)}}, Self: &branch{}}
	want, _ := Marshal(in)
	buf, err := MarshalAppend([]byte("prefix"), in)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "prefix" || !bytes.Equal(buf[6:], want) {
		t.Fatalf("MarshalAppend = %q, want prefix then %q", buf, want)
	}
	allocs := testing.AllocsPerRun(100, func() { buf, _ = MarshalAppend(buf[:0], in) })
	if allocs != 0 {
		t.Errorf("MarshalAppend into a reused buffer allocates %.1f times, want 0", allocs)
	}
}

// Repeated records decode in place into a slice sized once for all of
// them, even when other fields sit between them; a decode that fails keeps
// no half-decoded element.
func TestRepeatedDecodeSizesOnce(t *testing.T) {
	in := branch{Leaves: []leaf{{N: 1}, {N: 2}, {N: 3}}, ByName: map[string]leaf{"k": {N: 4}}}
	data, _ := Marshal(in)
	// Move the map entry between the first and second leaves.
	leafLen := 2 + int(data[1])
	mapEntry := data[3*leafLen:]
	mixed := append(append(append([]byte{}, data[:leafLen]...), mapEntry...), data[leafLen:3*leafLen]...)
	var out branch
	if err := Unmarshal(mixed, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) || cap(out.Leaves) != 3 {
		t.Fatalf("decoded %+v (cap %d), want %+v (cap 3)", out, cap(out.Leaves), in)
	}
	var bad branch
	if err := Unmarshal(append(data[:leafLen:leafLen], 1<<3|2, 5, 1<<3|0), &bad); err == nil {
		t.Fatal("truncated repeated record accepted")
	}
	if len(bad.Leaves) != 1 {
		t.Fatalf("failed decode left %d leaves, want the 1 complete one", len(bad.Leaves))
	}
}
