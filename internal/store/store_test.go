package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Error("key survives delete")
	}
	if err := s.Delete("absent"); err != nil {
		t.Errorf("deleting absent key: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k050"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k000", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	if s2.Len() != 99 {
		t.Errorf("len = %d, want 99", s2.Len())
	}
	v, ok, _ := s2.Get("k000")
	if !ok || string(v) != "updated" {
		t.Errorf("k000 = %q, %v", v, ok)
	}
	if _, ok, _ := s2.Get("k050"); ok {
		t.Error("deleted key resurrected")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Put("good", []byte("value"))
	s.Close()

	// Simulate a crash mid-append: garbage at the tail.
	f, err := os.OpenFile(filepath.Join(dir, "store.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}) // truncated record
	f.Close()

	s2 := open(t, dir)
	v, ok, _ := s2.Get("good")
	if !ok || string(v) != "value" {
		t.Fatalf("good record lost after torn tail: %q %v", v, ok)
	}
	// The store must be writable after truncation.
	if err := s2.Put("after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := open(t, dir)
	if v, ok, _ := s3.Get("after"); !ok || string(v) != "crash" {
		t.Errorf("post-recovery write lost: %q %v", v, ok)
	}
}

func TestCorruptedRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{})
	_ = s.Put("a", []byte("1"))
	_ = s.Put("b", []byte("2"))
	s.Close()

	// Flip a byte in the middle of the log (the second record's payload).
	path := filepath.Join(dir, "store.log")
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	_ = os.WriteFile(path, data, 0o644)

	s2 := open(t, dir)
	if _, ok, _ := s2.Get("a"); !ok {
		t.Error("first record lost")
	}
	if _, ok, _ := s2.Get("b"); ok {
		t.Error("corrupt record decoded")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 50; i++ {
		_ = s.Put("hot", []byte(fmt.Sprintf("v%d", i)))
	}
	_ = s.Put("cold", []byte("x"))
	before, _ := os.Stat(filepath.Join(dir, "store.log"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, "store.log"))
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink log: %d -> %d", before.Size(), after.Size())
	}
	v, ok, _ := s.Get("hot")
	if !ok || string(v) != "v49" {
		t.Errorf("hot = %q %v", v, ok)
	}
	// Writes after compaction must persist.
	_ = s.Put("post", []byte("compact"))
	s.Close()
	s2 := open(t, dir)
	if v, ok, _ := s2.Get("post"); !ok || string(v) != "compact" {
		t.Errorf("post-compact write lost: %q %v", v, ok)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactAt: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		_ = s.Put("k", []byte(fmt.Sprintf("%d", i)))
	}
	st, _ := os.Stat(filepath.Join(dir, "store.log"))
	// Without compaction the log would hold 100 records (~15 bytes each).
	if st.Size() > 500 {
		t.Errorf("auto compaction never ran: log is %d bytes", st.Size())
	}
}

func TestRange(t *testing.T) {
	s := open(t, t.TempDir())
	for _, k := range []string{"user/1", "user/2", "order/1", "user/3"} {
		_ = s.Put(k, []byte(k))
	}
	var got []string
	_ = s.Range("user/", func(k string, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != "user/1" || got[2] != "user/3" {
		t.Errorf("range = %v", got)
	}
	// Early termination.
	count := 0
	_ = s.Range("", func(k string, v []byte) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := open(t, t.TempDir())
	s.Close()
	if err := s.Put("k", nil); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if _, _, err := s.Get("k"); err == nil {
		t.Error("Get on closed store succeeded")
	}
}

func TestValueIsolation(t *testing.T) {
	s := open(t, t.TempDir())
	buf := []byte("mutable")
	_ = s.Put("k", buf)
	buf[0] = 'X'
	v, _, _ := s.Get("k")
	if string(v) != "mutable" {
		t.Error("store aliased caller's buffer")
	}
}

func TestQuickRoundTripThroughReopen(t *testing.T) {
	dir := t.TempDir()
	f := func(pairs map[string][]byte) bool {
		_ = os.RemoveAll(dir)
		s, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		for k, v := range pairs {
			if err := s.Put(k, v); err != nil {
				s.Close()
				return false
			}
		}
		s.Close()
		s2, err := Open(dir, Options{})
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Len() != len(pairs) {
			return false
		}
		for k, v := range pairs {
			got, ok, err := s2.Get(k)
			if err != nil || !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRecordFormat pins the log's record bytes: a 4-byte payload length
// and the payload's 4-byte CRC-32 (IEEE), both little-endian, then the
// payload [klen uvarint][vlen uvarint, or all ones for a delete][key][val].
func TestRecordFormat(t *testing.T) {
	for _, tc := range []struct {
		name    string
		key     string
		val     []byte
		del     bool
		payload []byte
	}{
		{"Put", "k", []byte("val"), false, []byte{1, 3, 'k', 'v', 'a', 'l'}},
		{"Delete", "key", nil, true, append([]byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "key"...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := binary.LittleEndian.AppendUint32(nil, uint32(len(tc.payload)))
			want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(tc.payload))
			want = append(want, tc.payload...)
			prefix := []byte("earlier records")
			got := encodeRecord(append([]byte(nil), prefix...), tc.key, tc.val, tc.del)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("encodeRecord = %x, want %x after the prefix", got, want)
			}
			rec, n, ok := decodeRecord(got[len(prefix):])
			if !ok || n != len(want) || rec.key != tc.key || rec.del != tc.del || !bytes.Equal(rec.val, tc.val) {
				t.Fatalf("decodeRecord = %+v, %d, %v", rec, n, ok)
			}
		})
	}
}

// TestAllocsPut pins a write's allocations: Put copies the value for its
// index and encodes the log record into the store's reused scratch, so
// overwriting a key allocates the value copy and nothing else. Delete
// allocates nothing.
func TestAllocsPut(t *testing.T) {
	s := open(t, t.TempDir())
	val := bytes.Repeat([]byte("v"), 200)
	put := func() {
		if err := s.Put("cart/alice", val); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if n := testing.AllocsPerRun(100, put); n != 1 {
		t.Errorf("Put allocates %v times, want 1 (the value copy)", n)
	}
	del := func() {
		if err := s.Delete("cart/alice"); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { put(); del() }); n != 1 {
		t.Errorf("Put and Delete allocate %v times, want 1 (the value copy)", n)
	}
}
