package generate

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func generateTestdata(t *testing.T) string {
	t.Helper()
	out, err := Generate(Options{
		Dir:     "testdata/cachepkg",
		PkgPath: "repro/internal/generate/testdata/cachepkg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no components found")
	}
	return string(out)
}

func TestGeneratedCodeParses(t *testing.T) {
	src := generateTestdata(t)
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "weaver_gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
}

func TestGeneratedSymbols(t *testing.T) {
	src := generateTestdata(t)
	for _, want := range []string{
		// Registrations for both components, in sorted order.
		`"repro/internal/generate/testdata/cachepkg/Cache"`,
		`"repro/internal/generate/testdata/cachepkg/Store"`,
		// Compile-time implementation checks.
		"var _ weaver.InstanceOf[Cache] = (*cacheImpl)(nil)",
		"var _ weaver.InstanceOf[Store] = (*storeImpl)(nil)",
		// Args/results structs.
		"type cache_Get_Args struct",
		"type cache_Stats_Res struct",
		// Client stub implements the interface.
		"var _ Cache = cache_ClientStub{}",
		// Routed methods get shard computation; Stats does not.
		"Routed:",
		"Shard: func(args any) uint64",
		// Variadic support.
		"a0 ...string",
		// Imported type from another package survives.
		"time.Duration",
		// Generated marshal/unmarshal methods (§4.2).
		"func (x *cache_Get_Args) WeaverMarshal(e *codec.Encoder)",
		"func (x *cache_Get_Args) WeaverUnmarshal(d *codec.Decoder)",
		"e.String(x.P0)",
		// The map parameter gets its own generated code, keys sorted.
		"type store_BulkPut_Args struct",
		"weaverEnc_map_string_slice_byte(e, &x.P0)",
		"func weaverEnc_map_string_slice_byte(e *codec.Encoder, x *map[string][]byte)",
		"func weaverDec_map_string_slice_byte(d *codec.Decoder, x *map[string][]byte)",
		"slices.Sort(keys)",
		"e.Bytes(v)",
		// time.Duration in Touch, by its underlying int64; time.Time as
		// Unix nanoseconds.
		"e.Int64(int64(x.P1))",
		"x.P1 = time.Duration(d.Int64())",
		"e.Int64(x.R0.UnixNano())",
		"x.R0 = time.Unix(0, d.Int64()).UTC()",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// No reflective fallback remains.
	for _, banned := range []string{"codec.Encode(", "codec.Decode(", "codec.EncodePtr(", "codec.Unmarshal("} {
		if strings.Contains(src, banned) {
			t.Errorf("generated code calls %s", banned)
		}
	}
	if strings.Count(src, "Shard: func") != 3 {
		t.Errorf("want 3 Shard funcs (Get, Put, Touch), got %d", strings.Count(src, "Shard: func"))
	}
}

func TestGeneratedImports(t *testing.T) {
	src := generateTestdata(t)
	for _, want := range []string{`"time"`, `"context"`, `"reflect"`, `"repro/internal/codegen"`, `"repro/internal/routing"`, `"repro/weaver"`} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing import %s", want)
		}
	}
}

func TestCacheOrderDeterministic(t *testing.T) {
	a := generateTestdata(t)
	b := generateTestdata(t)
	if a != b {
		t.Error("generator output nondeterministic")
	}
}

func TestNoComponents(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte("package x\n\nfunc F() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Generate(Options{Dir: dir, PkgPath: "example/x"})
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Errorf("got output for componentless package:\n%s", out)
	}
}

func TestRejectsMissingContext(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

import "repro/weaver"

type B interface {
	M(x int) error
}

type bImpl struct {
	weaver.Implements[B]
}

func (b *bImpl) M(x int) error { return nil }
`
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Generate(Options{Dir: dir, PkgPath: "example/bad"})
	if err == nil || !strings.Contains(err.Error(), "context.Context") {
		t.Errorf("err = %v, want context.Context complaint", err)
	}
}

func TestRejectsMissingError(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

import (
	"context"

	"repro/weaver"
)

type B interface {
	M(ctx context.Context) string
}

type bImpl struct {
	weaver.Implements[B]
}

func (b *bImpl) M(ctx context.Context) string { return "" }
`
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Generate(Options{Dir: dir, PkgPath: "example/bad"})
	if err == nil || !strings.Contains(err.Error(), "error") {
		t.Errorf("err = %v, want error-result complaint", err)
	}
}

func TestRejectsDuplicateImplementations(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

import (
	"context"

	"repro/weaver"
)

type B interface {
	M(ctx context.Context) error
}

type b1 struct{ weaver.Implements[B] }
func (b *b1) M(ctx context.Context) error { return nil }

type b2 struct{ weaver.Implements[B] }
func (b *b2) M(ctx context.Context) error { return nil }
`
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Generate(Options{Dir: dir, PkgPath: "example/bad"})
	if err == nil || !strings.Contains(err.Error(), "implemented by both") {
		t.Errorf("err = %v, want duplicate-implementation complaint", err)
	}
}

func TestRejectsRouterMethodMismatch(t *testing.T) {
	dir := t.TempDir()
	src := `package bad

import (
	"context"

	"repro/weaver"
)

type B interface {
	M(ctx context.Context) error
}

type r struct{}
func (r) NotAMethod(x string) string { return x }

type bImpl struct {
	weaver.Implements[B]
	weaver.WithRouter[r]
}
func (b *bImpl) M(ctx context.Context) error { return nil }
`
	if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Generate(Options{Dir: dir, PkgPath: "example/bad"})
	if err == nil || !strings.Contains(err.Error(), "NotAMethod") {
		t.Errorf("err = %v, want router mismatch complaint", err)
	}
}

func TestNoRetryDirective(t *testing.T) {
	dir := t.TempDir()
	src := `package pay

import (
	"context"

	"repro/weaver"
)

type Pay interface {
	// Charge is not idempotent.
	//
	//weaver:noretry
	Charge(ctx context.Context, cents int64) (string, error)
	Refund(ctx context.Context, txn string) error
}

type payImpl struct {
	weaver.Implements[Pay]
}

func (p *payImpl) Charge(ctx context.Context, cents int64) (string, error) { return "", nil }
func (p *payImpl) Refund(ctx context.Context, txn string) error            { return nil }
`
	if err := os.WriteFile(filepath.Join(dir, "pay.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Generate(Options{Dir: dir, PkgPath: "example/pay"})
	if err != nil {
		t.Fatal(err)
	}
	code := string(out)
	if !strings.Contains(code, "NoRetry: true,") {
		t.Error("Charge did not get NoRetry")
	}
	if !strings.Contains(code, `NoRetry: []string{"Charge"}`) {
		t.Error("registration NoRetry list missing")
	}
	if strings.Count(code, "NoRetry: true,") != 1 {
		t.Error("Refund wrongly marked NoRetry")
	}
}

func TestPackagePathFromGoMod(t *testing.T) {
	got, err := packagePath("testdata/cachepkg")
	if err != nil {
		t.Fatal(err)
	}
	if got != "repro/internal/generate/testdata/cachepkg" {
		t.Errorf("packagePath = %q", got)
	}
}

func TestRejectsUnserializableTypes(t *testing.T) {
	for _, tc := range []struct{ typ, want string }{
		{"chan int", "chan int cannot be serialized"},
		{"func()", "cannot be serialized"},
		{"error", "error cannot be serialized"},
		{"map[string]any", "cannot be serialized"},
		{"[]struct{ x int }", "cannot bound their count"},
		{"wrapper", "field In: type chan string cannot be serialized"},
	} {
		dir := t.TempDir()
		src := `package bad

import (
	"context"

	"repro/weaver"
)

type wrapper struct{ In chan string }

type B interface {
	M(ctx context.Context, v ` + tc.typ + `) error
}

type bImpl struct {
	weaver.Implements[B]
}
`
		if err := os.WriteFile(filepath.Join(dir, "b.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Generate(Options{Dir: dir, PkgPath: "example/bad"})
		if err == nil || !strings.Contains(err.Error(), "B.M: parameter 1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a generation-time error containing %q", tc.typ, err, tc.want)
		}
	}
}

// TestCommittedCodeIsFresh regenerates every committed weaver_gen.go and
// fails on any difference, so a generator change cannot ship without the
// code it would produce.
func TestCommittedCodeIsFresh(t *testing.T) {
	for _, dir := range []string{
		"../boutique",
		"../testpkg",
		"../../examples/cache",
		"../../examples/quickstart",
	} {
		want, err := os.ReadFile(filepath.Join(dir, "weaver_gen.go"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Generate(Options{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if !bytes.Equal(got, want) {
			pkg := filepath.ToSlash(filepath.Join("internal/generate", dir))
			t.Errorf("%s/weaver_gen.go is stale; regenerate it with `go run ./cmd/weavergen ./%s` from the repository root", pkg, pkg)
		}
	}
}
