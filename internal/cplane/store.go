package cplane

import "sync"

// Store holds the current control-plane State and evolves it
// copy-on-write: every Update clones the current version, applies the
// mutation to the clone, bumps Version, and publishes it atomically.
// Snapshots handed out are immutable — readers never see a torn state and
// never block writers.
type Store struct {
	mu  sync.Mutex
	cur *State
}

// NewStore builds a store seeded with init (which the store takes
// ownership of).
func NewStore(init *State) *Store {
	if init == nil {
		init = NewState()
	}
	init.Version = 1
	return &Store{cur: init}
}

// Snapshot returns the current state. The caller must not mutate it.
func (st *Store) Snapshot() *State {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cur
}

// Update clones the current state, applies fn to the clone, assigns the
// next version, and publishes it. fn sees the pre-bump Version and must
// not retain the working copy beyond the call. The published state is
// returned.
func (st *Store) Update(fn func(s *State)) *State {
	st.mu.Lock()
	defer st.mu.Unlock()
	work := st.cur.Clone()
	fn(work)
	work.Version = st.cur.Version + 1
	st.cur = work
	return work
}
