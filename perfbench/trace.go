package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// A span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one request share Trace; Parent is 0 for a root.
// Times are nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// selfStat is the total and self time of all spans with one name.
type selfStat struct {
	count      int
	totalNanos int64
	selfNanos  int64
}

// selfTimes returns, per span name, the spans' total duration and their
// self time: each span's duration minus the part of it that the union of
// its children's intervals covers.
func selfTimes(spans []span) map[string]selfStat {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]selfStat{}
	for _, s := range spans {
		covered := coveredNanos(children[s.ID], s.Start, s.End)
		st := out[s.Name]
		st.count++
		st.totalNanos += s.End - s.Start
		st.selfNanos += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}

// coveredNanos is the length of the union of intervals, clipped to
// [lo, hi].
func coveredNanos(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
