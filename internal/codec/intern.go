package codec

import (
	"hash/maphash"
	"sync/atomic"
)

// Decoded strings share one copy. Both ends of a hop run the same binary,
// and a call moves mostly the same short values again and again (product
// names, picture paths, currency codes, metric names), so copying every one
// onto the heap on every hop is the decoder's largest allocation. Intern
// returns those values from a fixed table instead.
//
// The table is internSlots slots indexed by a maphash of the wire bytes.
// A slot holds a resident string, the hash of the last string first seen
// there, and a flag set when the resident is hit:
//
//   - hit: the resident equals the input bytes; it is returned with no
//     allocation.
//   - first sighting: the signature is overwritten and a fresh copy is
//     returned, as without the table. A value that never repeats (an order
//     ID) costs one hash and one atomic store, and no bytes beyond its copy.
//   - second sighting (the signature equals the input's hash): the copy
//     becomes the resident, unless the resident has been hit since a
//     newcomer last tried to displace it. Then the flag is cleared
//     instead, so of two hot strings that share a slot one stays resident
//     and the other keeps missing, rather than each evicting the other at
//     the cost of a header allocation per turn.
//
// Every slot field is read and written atomically, and a resident is
// immutable once published, so concurrent decoders never see a torn slot;
// a collision or a stale field can only cause a miss, never a wrong
// string. The table holds at most internSlots × internMaxLen bytes of
// string data (512 KiB) plus one 16-byte header per resident and the
// 96 KiB array itself. Byte slices are never interned: the caller may
// mutate them.
const (
	internSlots  = 1 << 12
	internMaxLen = 128
)

type internSlot struct {
	str  atomic.Pointer[string] // the resident string, or nil
	sig  atomic.Uint64          // hash of the last string first seen here
	used atomic.Uint32          // 1 once the resident is hit
}

var (
	internSeed  = maphash.MakeSeed()
	internTable [internSlots]internSlot
)

// Intern returns a string equal to b that does not alias b. Strings longer
// than internMaxLen, and the empty string, bypass the table.
func Intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := maphash.Bytes(internSeed, b)
	slot := &internTable[h&(internSlots-1)]
	if p := slot.str.Load(); p != nil && *p == string(b) {
		if slot.used.Load() == 0 {
			slot.used.Store(1)
		}
		return *p
	}
	if slot.sig.Load() != h {
		slot.sig.Store(h)
		return string(b)
	}
	if slot.used.Load() != 0 {
		slot.used.Store(0)
		return string(b)
	}
	s := string(b)
	p := new(string)
	*p = s
	slot.str.Store(p)
	return s
}
