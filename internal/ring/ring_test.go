package ring

import (
	"slices"
	"testing"
)

// seq returns the integers [from, to).
func seq(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// TestKeepsNewest adds runs of entries in batches of varied size and checks
// that the buffer always holds exactly the newest max of them, oldest
// first, for limits below, at and above one chunk and for no limit.
func TestKeepsNewest(t *testing.T) {
	for _, max := range []int{0, 1, 7, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		b := New[int](max)
		total := 0
		for _, batch := range []int{0, 1, 5, chunkLen, 2*chunkLen + 3, 1, 4 * chunkLen} {
			b.Add(seq(total, total+batch)...)
			total += batch
			from := 0
			if max > 0 && total > max {
				from = total - max
			}
			if got, want := b.AppendTo(nil), seq(from, total); !slices.Equal(got, want) {
				t.Fatalf("max %d after %d entries: retained %d entries [%v ...], want %d from %d",
					max, total, len(got), got[:min(len(got), 3)], len(want), from)
			}
			if b.Len() != total-from {
				t.Fatalf("max %d: Len = %d, want %d", max, b.Len(), total-from)
			}
		}
	}
}

// TestAllocatesOnce checks that a bounded buffer allocates its chunks
// while it first fills and nothing once it wraps.
func TestAllocatesOnce(t *testing.T) {
	const max = 2*chunkLen + 10
	b := New[int](max)
	if len(b.chunks) != 0 {
		t.Fatal("a new buffer allocated chunks")
	}
	b.Add(seq(0, max)...)
	if len(b.chunks) != 3 {
		t.Fatalf("%d chunks for %d entries, want 3", len(b.chunks), max)
	}
	batch := seq(0, 100)
	if allocs := testing.AllocsPerRun(100, func() { b.Add(batch...) }); allocs != 0 {
		t.Fatalf("a full buffer allocated %.1f times per batch, want 0", allocs)
	}
	if len(b.chunks) != 3 {
		t.Fatalf("wrapping grew the buffer to %d chunks", len(b.chunks))
	}
}

// TestDropReleasesEntries checks that an entry dropped from a bounded
// buffer no longer pins what it references.
func TestDropReleasesEntries(t *testing.T) {
	b := New[*int](chunkLen + 1) // two chunks, so dropped slots sit idle
	for i := 0; i < chunkLen+2; i++ {
		v := i
		b.Add(&v)
	}
	if *b.at(0) != nil {
		t.Fatal("the dropped oldest entry is still referenced")
	}
}
