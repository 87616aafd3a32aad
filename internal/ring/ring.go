// Package ring retains the newest entries of an unbounded stream — log
// entries, trace spans — in fixed-size chunks. A slice that appends and
// trims its front regrows and copies everything it holds each time it
// fills; a Buffer allocates each chunk once, when the stream first needs
// it, and from then on overwrites its oldest entry in place. Retaining N
// entries therefore allocates about N entries' worth of memory, once, and
// an idle Buffer allocates nothing.
package ring

// chunkLen is the number of entries per chunk.
const chunkLen = 1024

// A Buffer retains the newest Max entries added to it (all of them when
// Max is 0). The zero value retains everything. A Buffer is not safe for
// concurrent use; callers hold their own lock.
type Buffer[T any] struct {
	max    int
	chunks [][]T // each chunkLen long; allocated as the buffer first fills
	head   int   // index of the oldest entry
	n      int   // entries retained
}

// New returns a buffer retaining the newest max entries (0 = unlimited).
func New[T any](max int) *Buffer[T] { return &Buffer[T]{max: max} }

// Len reports how many entries are retained.
func (b *Buffer[T]) Len() int { return b.n }

// Add appends batch, dropping the oldest entries beyond the limit.
func (b *Buffer[T]) Add(batch ...T) {
	for _, v := range batch {
		b.push(v)
	}
}

func (b *Buffer[T]) push(v T) {
	size := len(b.chunks) * chunkLen
	if b.max > 0 && b.n == b.max {
		// Drop the oldest entry, releasing what it references.
		var zero T
		*b.at(b.head) = zero
		b.head = (b.head + 1) % size
		b.n--
	}
	if b.n == size {
		// Full and below the limit: head is still 0, since entries are
		// only dropped once the limit is reached, so a new chunk extends
		// the ring at its end.
		b.chunks = append(b.chunks, make([]T, chunkLen))
		size += chunkLen
	}
	*b.at((b.head + b.n) % size) = v
	b.n++
}

func (b *Buffer[T]) at(i int) *T { return &b.chunks[i/chunkLen][i%chunkLen] }

// AppendTo appends the retained entries to dst, oldest first.
func (b *Buffer[T]) AppendTo(dst []T) []T {
	size := len(b.chunks) * chunkLen
	for i := 0; i < b.n; i++ {
		dst = append(dst, *b.at((b.head + i) % size))
	}
	return dst
}
