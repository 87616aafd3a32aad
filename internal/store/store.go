// Package store implements a small, crash-safe, disk-backed key-value
// store. It is the persistent-storage substrate for stateful components in
// this repository: the boutique's cart service and the affinity-routed
// cache example (§5.2: "an in-memory cache component backed by an
// underlying disk-based storage system").
//
// The design is a log-structured store: writes append CRC-protected
// records to a log file, reads are served from an in-memory index rebuilt
// by replaying the log at open, and Compact rewrites the log to drop
// superseded records. A torn tail (e.g. from a crash mid-write) is
// detected by CRC and truncated at open.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// tombstone marks deletions in the log.
const tombstone = ^uint64(0)

// Options configures a Store.
type Options struct {
	// Sync forces an fsync after every write. Durability versus
	// throughput; defaults to false (rely on OS flushing), which matches
	// how the evaluation uses the store.
	Sync bool
	// CompactAt triggers automatic compaction when the log holds this many
	// superseded records (default 100000; 0 uses the default, negative
	// disables).
	CompactAt int
}

// Store is a disk-backed key-value store. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu    sync.RWMutex
	index map[string][]byte
	log   *os.File
	dead  int    // superseded records in the log
	live  int    // records in index
	rec   []byte // encodeRecord scratch, reused under mu
}

// Open opens (creating if necessary) the store in dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CompactAt == 0 {
		opts.CompactAt = 100000
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, index: map[string][]byte{}}
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.log = f
	return s, nil
}

func (s *Store) logPath() string { return filepath.Join(s.dir, "store.log") }

// replay rebuilds the index from the log, truncating a corrupt tail.
func (s *Store) replay() error {
	data, err := os.ReadFile(s.logPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	valid := 0
	off := 0
	for off < len(data) {
		rec, n, ok := decodeRecord(data[off:])
		if !ok {
			break // torn tail
		}
		if rec.del {
			if _, exists := s.index[rec.key]; exists {
				delete(s.index, rec.key)
				s.dead += 2 // the put and the delete are both dead
			} else {
				s.dead++
			}
		} else {
			if _, exists := s.index[rec.key]; exists {
				s.dead++
			}
			s.index[rec.key] = rec.val
		}
		off += n
		valid = off
	}
	if valid < len(data) {
		// Truncate the torn tail so subsequent appends are well-formed.
		if err := os.Truncate(s.logPath(), int64(valid)); err != nil {
			return fmt.Errorf("store: truncating torn log tail: %w", err)
		}
	}
	s.live = len(s.index)
	return nil
}

type record struct {
	key string
	val []byte
	del bool
}

// encodeRecord appends a record: len(payload) + crc32(payload) + payload,
// where payload is [klen uvarint][vlen uvarint or tombstone][key][val]. The
// payload is encoded in place behind its 8-byte prefix, so a buf with room
// to spare takes the record without allocating.
func encodeRecord(buf []byte, key string, val []byte, del bool) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	if del {
		buf = binary.AppendUvarint(buf, tombstone)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(val)))
	}
	buf = append(buf, key...)
	if !del {
		buf = append(buf, val...)
	}
	payload := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeRecord parses one record, reporting its total size and validity.
func decodeRecord(data []byte) (record, int, bool) {
	if len(data) < 8 {
		return record{}, 0, false
	}
	plen := binary.LittleEndian.Uint32(data[0:])
	crc := binary.LittleEndian.Uint32(data[4:])
	if uint32(len(data)-8) < plen {
		return record{}, 0, false
	}
	payload := data[8 : 8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return record{}, 0, false
	}
	klen, n1 := binary.Uvarint(payload)
	if n1 <= 0 {
		return record{}, 0, false
	}
	vlen, n2 := binary.Uvarint(payload[n1:])
	if n2 <= 0 {
		return record{}, 0, false
	}
	rest := payload[n1+n2:]
	if uint64(len(rest)) < klen {
		return record{}, 0, false
	}
	key := string(rest[:klen])
	rest = rest[klen:]
	if vlen == tombstone {
		return record{key: key, del: true}, 8 + int(plen), true
	}
	if uint64(len(rest)) < vlen {
		return record{}, 0, false
	}
	val := make([]byte, vlen)
	copy(val, rest[:vlen])
	return record{key: key, val: val}, 8 + int(plen), true
}

// Get returns the value for key and whether it exists. The returned slice
// must not be modified.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.log == nil {
		return nil, false, fmt.Errorf("store: closed")
	}
	v, ok := s.index[key]
	return v, ok, nil
}

// Put stores a value.
func (s *Store) Put(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("store: closed")
	}
	if err := s.appendLocked(key, cp, false); err != nil {
		return err
	}
	if _, existed := s.index[key]; existed {
		s.dead++
	}
	s.index[key] = cp
	s.live = len(s.index)
	return s.maybeCompactLocked()
}

// Delete removes a key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("store: closed")
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	if err := s.appendLocked(key, nil, true); err != nil {
		return err
	}
	delete(s.index, key)
	s.dead += 2
	s.live = len(s.index)
	return s.maybeCompactLocked()
}

func (s *Store) appendLocked(key string, val []byte, del bool) error {
	s.rec = encodeRecord(s.rec[:0], key, val, del)
	if _, err := s.log.Write(s.rec); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if s.opts.Sync {
		return s.log.Sync()
	}
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Range calls fn for every key with the given prefix, in sorted key order,
// until fn returns false.
func (s *Store) Range(prefix string, fn func(key string, val []byte) bool) error {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	type kv struct {
		k string
		v []byte
	}
	pairs := make([]kv, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, kv{k, s.index[k]})
	}
	s.mu.RUnlock()

	for _, p := range pairs {
		if !fn(p.k, p.v) {
			return nil
		}
	}
	return nil
}

func (s *Store) maybeCompactLocked() error {
	if s.opts.CompactAt < 0 || s.dead < s.opts.CompactAt {
		return nil
	}
	return s.compactLocked()
}

// Compact rewrites the log, dropping superseded records.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmp := s.logPath() + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.rec = encodeRecord(s.rec[:0], k, s.index[k], false)
		if _, err := f.Write(s.rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.logPath()); err != nil {
		os.Remove(tmp)
		return err
	}
	old := s.log
	nf, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	s.log = nf
	s.dead = 0
	return nil
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Sync()
	cerr := s.log.Close()
	s.log = nil
	if err != nil {
		return err
	}
	return cerr
}
