package routing

import (
	"testing"
	"testing/quick"
)

func TestEqualSlicesCoversKeySpace(t *testing.T) {
	a := EqualSlices(1, []string{"r1", "r2", "r3"}, 4)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every key must resolve to exactly one replica.
	for _, key := range []uint64{0, 1, 1 << 32, 1 << 63, ^uint64(0)} {
		reps := a.Find(key)
		if len(reps) != 1 {
			t.Errorf("key %d -> %v", key, reps)
		}
	}
}

func TestEqualSlicesBalanced(t *testing.T) {
	replicas := []string{"a", "b", "c", "d"}
	a := EqualSlices(1, replicas, 8)
	counts := map[string]int{}
	const samples = 100000
	for i := 0; i < samples; i++ {
		key := KeyHash(string(rune(i)) + "key")
		counts[a.Find(key)[0]]++
	}
	for r, n := range counts {
		frac := float64(n) / samples
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("replica %s got %.1f%% of keys, want ~25%%", r, frac*100)
		}
	}
}

func TestEqualSlicesDeterministicOrderIndependent(t *testing.T) {
	a := EqualSlices(1, []string{"x", "y", "z"}, 4)
	b := EqualSlices(1, []string{"z", "x", "y"}, 4)
	for _, key := range []uint64{7, 1 << 20, 1 << 50} {
		if a.Find(key)[0] != b.Find(key)[0] {
			t.Errorf("replica order changed assignment for key %d", key)
		}
	}
}

func TestQuickAssignmentInvariant(t *testing.T) {
	f := func(version uint64, n uint8, spr uint8, key uint64) bool {
		count := int(n%8) + 1
		replicas := make([]string, count)
		for i := range replicas {
			replicas[i] = string(rune('a' + i))
		}
		a := EqualSlices(version, replicas, int(spr%6)+1)
		if a.Validate() != nil {
			return false
		}
		return len(a.Find(key)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin("a", "b", "c")
	seen := map[string]int{}
	for i := 0; i < 30; i++ {
		addr, err := rr.Pick(0, false)
		if err != nil {
			t.Fatal(err)
		}
		seen[addr]++
	}
	for _, r := range []string{"a", "b", "c"} {
		if seen[r] != 10 {
			t.Errorf("replica %s picked %d times, want 10", r, seen[r])
		}
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	rr := NewRoundRobin()
	if _, err := rr.Pick(0, false); err != ErrNoReplicas {
		t.Errorf("err = %v", err)
	}
}

func TestAffinityStickiness(t *testing.T) {
	af := NewAffinity("a", "b", "c")
	a := EqualSlices(1, []string{"a", "b", "c"}, 4)
	af.Update([]string{"a", "b", "c"}, &a)
	for _, key := range []string{"user-1", "user-2", "user-3"} {
		h := KeyHash(key)
		first, err := af.Pick(h, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			got, err := af.Pick(h, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != first {
				t.Fatalf("key %s flapped: %s vs %s", key, got, first)
			}
		}
	}
}

func TestAffinityFallsBackWithoutAssignment(t *testing.T) {
	af := NewAffinity("a", "b")
	if _, err := af.Pick(KeyHash("k"), true); err != nil {
		t.Errorf("no fallback: %v", err)
	}
}

func TestAffinityUnshardedUsesRoundRobin(t *testing.T) {
	af := NewAffinity("a", "b")
	a := EqualSlices(1, []string{"a"}, 4) // assignment says everything -> a
	af.Update([]string{"a", "b"}, &a)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		addr, err := af.Pick(0, false)
		if err != nil {
			t.Fatal(err)
		}
		seen[addr] = true
	}
	if !seen["b"] {
		t.Error("unsharded calls never reached replica b")
	}
}

func TestAffinityClearedOnEmptyReplicas(t *testing.T) {
	af := NewAffinity("a")
	a := EqualSlices(1, []string{"a"}, 2)
	af.Update([]string{"a"}, &a)
	af.Update(nil, nil)
	if _, err := af.Pick(KeyHash("k"), true); err != ErrNoReplicas {
		t.Errorf("err = %v", err)
	}
}

func TestKeyHashNeverZero(t *testing.T) {
	f := func(s string) bool { return KeyHash(s) != 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
