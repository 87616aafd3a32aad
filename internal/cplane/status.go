package cplane

import (
	"sync"
	"time"
)

// Status is the observed side of the control plane: for each replica, the
// load rate and time of its latest report, and the routing epochs its
// proclet has acknowledged applying. These change on every load report
// (every 100 ms per replica) and every routing ack, far more often than
// anything a reconciler decides, so they are updated in place under
// Status's own lock instead of through the copy-on-write Store. A report
// therefore costs O(1) however large the State is, and State.Version counts
// desired changes only. This is the spec/status split of a Kubernetes
// object: State is what the control plane wants and has decided, Status is
// what the fleet last said.
//
// Entries follow the State's replica records. The manager adds an entry
// (Touch) where it creates a record and removes it where it deletes one,
// inside the same Store.Update, so a report or ack for a replica the State
// does not know finds no entry and is dropped, as it was when these fields
// lived on the record.
type Status struct {
	mu   sync.Mutex
	reps map[string]*replicaStatus
}

type replicaStatus struct {
	rate       float64   // calls/sec from the latest load report
	lastReport time.Time // when the replica last reported (or was created)
	// applied records, per component, the newest routing epoch the
	// replica's proclet has acknowledged applying: LastPush says what was
	// asked, applied says what each replica has done.
	applied map[string]uint64
}

// NewStatus returns an empty status table.
func NewStatus() *Status {
	return &Status{reps: map[string]*replicaStatus{}}
}

// Touch records that replica id reported, or was created, at now, adding
// its entry if it has none.
func (st *Status) Touch(id string, now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.reps[id]
	if r == nil {
		r = &replicaStatus{applied: map[string]uint64{}}
		st.reps[id] = r
	}
	r.lastReport = now
}

// Remove forgets replica id.
func (st *Status) Remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.reps, id)
}

// Report records a load report from replica id in place. It reports false,
// recording nothing, when id has no entry.
func (st *Status) Report(id string, rate float64, now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.reps[id]
	if r == nil {
		return false
	}
	r.rate = rate
	r.lastReport = now
	return true
}

// NoteApplied raises replica id's applied routing epoch for component to
// v. Older epochs and unknown replicas are ignored.
func (st *Status) NoteApplied(id, component string, v uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r := st.reps[id]; r != nil && v > r.applied[component] {
		r.applied[component] = v
	}
}

// Load returns replica id's latest load rate and report time. A replica
// without an entry reads as never having reported.
func (st *Status) Load(id string) (rate float64, lastReport time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r := st.reps[id]; r != nil {
		return r.rate, r.lastReport
	}
	return 0, time.Time{}
}

// Applied returns the newest routing epoch replica id has applied for
// component, or 0.
func (st *Status) Applied(id, component string) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if r := st.reps[id]; r != nil {
		return r.applied[component]
	}
	return 0
}

// MaxApplied returns the newest applied epoch of any replica and component,
// and whose it is. Every applied epoch was stamped in a published State, so
// a State snapshot taken after MaxApplied returns has a RouteEpoch at least
// as large; CheckApplied relies on that order.
func (st *Status) MaxApplied() (id, component string, v uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for rid, r := range st.reps {
		for c, a := range r.applied {
			if a > v {
				id, component, v = rid, c, a
			}
		}
	}
	return id, component, v
}
