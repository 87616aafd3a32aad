package rpc_test

import (
	"hash/fnv"
	"testing"

	"repro/internal/codegen"
	"repro/internal/rpc"

	_ "repro/internal/boutique"
	_ "repro/internal/testpkg"
)

// TestComponentMethodKeyMatchesFNV pins the wire method IDs: the inlined
// hash must give every registered method the ID that hash/fnv's FNV-1a gives
// its full name, with no allocation.
func TestComponentMethodKeyMatchesFNV(t *testing.T) {
	n := 0
	for _, reg := range codegen.All() {
		for _, m := range reg.Methods {
			h := fnv.New32a()
			h.Write([]byte(reg.FullMethod(m.Name)))
			want := rpc.MethodID(h.Sum32())
			if got := rpc.ComponentMethodKey(reg.Name, m.Name); got != want {
				t.Errorf("ComponentMethodKey(%q, %q) = %#x, want %#x", reg.Name, m.Name, got, want)
			}
			if got := rpc.MethodKey(reg.FullMethod(m.Name)); got != want {
				t.Errorf("MethodKey(%q) = %#x, want %#x", reg.FullMethod(m.Name), got, want)
			}
			n++
		}
	}
	if n < 20 {
		t.Fatalf("only %d registered methods checked", n)
	}
	if a := testing.AllocsPerRun(100, func() {
		rpc.ComponentMethodKey("repro/internal/boutique/Currency", "Convert")
	}); a != 0 {
		t.Errorf("ComponentMethodKey allocates %.0f times, want 0", a)
	}
}
