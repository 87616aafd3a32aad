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

func TestKeyHashNeverZero(t *testing.T) {
	f := func(s string) bool { return KeyHash(s) != 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
