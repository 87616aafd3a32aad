package codec

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// distinctSeq numbers strings that no test or benchmark has decoded before.
// It is package-wide so repeated benchmark rounds never revisit a value.
var distinctSeq atomic.Uint64

// freshString returns a string of n bytes (n ≥ 8) never returned before in
// this process.
func freshString(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'x'
	}
	binary.LittleEndian.PutUint64(b, distinctSeq.Add(1)|1<<63)
	return b
}

func encodeString(b []byte) []byte {
	var e Encoder
	e.String(string(b))
	return e.Data()
}

// TestAllocsInternedString pins the intern table's allocation contract: a
// string decoded before costs nothing, and one never decoded before costs
// exactly the copy it cost without the table.
func TestAllocsInternedString(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are checked without the race detector")
	}
	wire := encodeString(freshString(40))
	var d Decoder
	decode := func() string {
		d.Reset(wire)
		return d.String()
	}
	decode() // first sighting: signature only
	decode() // second sighting: admitted
	if got := testing.AllocsPerRun(1000, func() { _ = decode() }); got != 0 {
		t.Errorf("repeated string: %.1f allocs/op, want 0", got)
	}

	// A never-repeated string: at most the one copy, and no more bytes than
	// a plain string(b) copy of the same length.
	const n = 10000
	wires := make([][]byte, n)
	for i := range wires {
		wires[i] = encodeString(freshString(40))
	}
	raw := freshString(40)
	allocs, bytes := perOp(n, func(i int) { d.Reset(wires[i]); sink = d.String() })
	_, copied := perOp(n, func(int) { sink = string(raw) })
	if allocs > 1 {
		t.Errorf("never-repeated string: %d allocs/op, want ≤ 1", allocs)
	}
	if bytes > copied {
		t.Errorf("never-repeated string: %d B/op, want ≤ %d (a plain copy)", bytes, copied)
	}
}

var sink string

// perOp reports the heap allocations and bytes f makes per call, over n
// calls.
func perOp(n int, f func(i int)) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(n), (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestInternConcurrent runs decoders on several goroutines over more
// distinct strings than the table has slots, mixed with a few hot repeated
// ones, so slots are admitted, replaced and read concurrently. Under -race
// this also proves every slot access is synchronised. Every decoded string
// must equal its wire bytes.
func TestInternConcurrent(t *testing.T) {
	const (
		workers  = 4
		distinct = 2 * internSlots
	)
	hot := make([][]byte, 8)
	for i := range hot {
		hot[i] = []byte(fmt.Sprintf("hot-product-%d", i))
	}
	var cold [][]byte
	for i := 0; i < distinct; i++ {
		cold = append(cold, []byte(fmt.Sprintf("cold-%d-%s", i, "padding-to-vary-length"[:i%20])))
	}
	cold = append(cold, make([]byte, internMaxLen+1)) // too long to intern
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d Decoder
			for i := 0; i < 2*len(cold); i++ {
				var want []byte
				if i%3 == 0 {
					want = hot[(i+w)%len(hot)]
				} else {
					want = cold[(i*7+w*13)%len(cold)]
				}
				d.Reset(encodeString(want))
				if got := d.String(); got != string(want) {
					errs <- fmt.Sprintf("worker %d: decoded %q, want %q", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInternedStringDoesNotAliasInput overwrites the decoder's input after
// each decode, as a pooled frame is overwritten by the next one, and checks
// that no returned string changes: not on a first sighting, not on the
// sighting that admits the string, and not on a hit.
func TestInternedStringDoesNotAliasInput(t *testing.T) {
	want := string(freshString(32))
	long := string(freshString(internMaxLen + 10))
	for _, w := range []string{want, long} {
		var got []string
		for i := 0; i < 3; i++ {
			wire := encodeString([]byte(w))
			d := NewDecoder(wire)
			got = append(got, d.String())
			for j := range wire {
				wire[j] = 0xff
			}
		}
		for i, g := range got {
			if g != w {
				t.Errorf("decode %d of a %d-byte string changed after its input was overwritten: %q", i, len(w), g)
			}
		}
	}
}

// TestInternCollisionKeepsResident drives two strings that share a slot
// in the patterns in which, without the resident's second chance, each
// would evict the other: strict alternation, and the resident seen twice
// for each sighting of the newcomer. The resident must stay the same memory throughout, and the
// newcomer must cost one copy per decode, never a copy plus a header.
func TestInternCollisionKeepsResident(t *testing.T) {
	slotOf := func(b []byte) uint64 { return maphash.Bytes(internSeed, b) & (internSlots - 1) }
	a := freshString(24)
	b := freshString(24)
	for slotOf(b) != slotOf(a) {
		b = freshString(24)
	}
	wa, wb := encodeString(a), encodeString(b)
	var d Decoder
	decode := func(w []byte) string {
		d.Reset(w)
		return d.String()
	}
	// Sighted a few times in a row, a displaces whatever the slot held and
	// comes back as the same memory.
	var resident string
	for i := 0; i < 4; i++ {
		s := decode(wa)
		if unsafe.StringData(s) == unsafe.StringData(resident) {
			break
		}
		resident = s
	}
	for name, pattern := range map[string][][]byte{
		"alternating":    {wa, wb},
		"resident twice": {wa, wa, wb},
	} {
		for round := 0; round < 20; round++ {
			for _, w := range pattern {
				got := decode(w)
				if &w[0] == &wa[0] && unsafe.StringData(got) != unsafe.StringData(resident) {
					t.Fatalf("%s, round %d: the resident was evicted by a colliding string", name, round)
				}
			}
		}
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(100, func() {
			for _, w := range pattern {
				_ = decode(w)
			}
		}); got != 1 {
			t.Errorf("%s: %.1f allocs per round, want 1 (the newcomer's copy)", name, got)
		}
	}
}

// BenchmarkDecodeStrings decodes a catalog-like record of six strings.
// repeated decodes the same record every iteration, as a hop that moves the
// same catalog entries does; distinct writes a fresh counter into the
// first three bytes of every string first, so each iteration decodes six
// values not seen in the last 2^24 iterations, long after their slots were
// overwritten.
func BenchmarkDecodeStrings(b *testing.B) {
	fields := []string{
		"OLJCESPC7Z",
		"Sunglasses",
		"Add a modern touch to your outfits with these sleek aviator sunglasses.",
		"/static/img/products/sunglasses.jpg",
		"USD",
		"accessories",
	}
	var e Encoder
	var offs []int
	for _, f := range fields {
		e.Len64(len(f))
		offs = append(offs, e.Len())
		e.Raw([]byte(f))
	}
	wire := e.Data()
	run := func(b *testing.B, fresh bool) {
		var d Decoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fresh {
				n := distinctSeq.Add(1)
				for _, off := range offs {
					wire[off] = byte(n)
					wire[off+1] = byte(n >> 8)
					wire[off+2] = byte(n >> 16)
				}
			}
			d.Reset(wire)
			for range fields {
				sink = d.String()
			}
		}
	}
	b.Run("repeated", func(b *testing.B) { run(b, false) })
	b.Run("distinct", func(b *testing.B) { run(b, true) })
}
