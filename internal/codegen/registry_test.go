package codegen

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
)

type TestIface interface {
	M(ctx context.Context) error
}

type testImpl struct{}

func (*testImpl) M(context.Context) error { return nil }

type emptyMsg struct{}

func (*emptyMsg) WeaverMarshal(*codec.Encoder)   {}
func (*emptyMsg) WeaverUnmarshal(*codec.Decoder) {}

func validReg(name string) Registration {
	return Registration{
		Name:  name,
		Iface: reflect.TypeOf((*TestIface)(nil)).Elem(),
		Impl:  reflect.TypeOf(testImpl{}),
		Methods: []*MethodSpec{{
			Name:    "M",
			NewArgs: func() Message { return &emptyMsg{} },
			NewRes:  func() Message { return &emptyMsg{} },
			Do:      func(context.Context, any, any, any) {},
		}},
		ClientStub: func(conn Conn) any { return nil },
	}
}

func TestValidate(t *testing.T) {
	r := validReg("a/B")
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := r
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}

	bad = r
	bad.Iface = reflect.TypeOf(0)
	if err := bad.Validate(); err == nil {
		t.Error("non-interface Iface accepted")
	}

	bad = r
	bad.Impl = reflect.TypeOf("")
	if err := bad.Validate(); err == nil {
		t.Error("non-struct Impl accepted")
	}

	bad = r
	bad.ClientStub = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing ClientStub accepted")
	}

	bad = r
	bad.Methods = append([]*MethodSpec{}, r.Methods[0], r.Methods[0])
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate method: %v", err)
	}
}

func TestValidateImplMustImplementIface(t *testing.T) {
	r := validReg("a/C")
	type notImpl struct{}
	r.Impl = reflect.TypeOf(notImpl{})
	if err := r.Validate(); err == nil {
		t.Error("non-implementing Impl accepted")
	}
}

func TestMethodLookup(t *testing.T) {
	r := validReg("a/D")
	if r.Method("M") == nil {
		t.Error("Method(M) = nil")
	}
	if r.Method("Nope") != nil {
		t.Error("Method(Nope) != nil")
	}
	if got := r.FullMethod("M"); got != "a/D.M" {
		t.Errorf("FullMethod = %q", got)
	}
}

func TestErrorWireHelpers(t *testing.T) {
	msg, ok := ErrorToWire(nil)
	if msg != "" || ok {
		t.Errorf("ErrorToWire(nil) = %q, %v", msg, ok)
	}
	msg, ok = ErrorToWire(errors.New("boom"))
	if msg != "boom" || !ok {
		t.Errorf("ErrorToWire = %q, %v", msg, ok)
	}
	if err := WireToError("", false); err != nil {
		t.Errorf("WireToError nil case = %v", err)
	}
	err := WireToError("boom", true)
	var re *RemoteError
	if !errors.As(err, &re) || re.Message != "boom" {
		t.Errorf("WireToError = %v", err)
	}
}

func TestRegisterAssignsMethodIndex(t *testing.T) {
	defer ClearForTesting()
	r := validReg("a/Indexed")
	spec := func(name string) *MethodSpec {
		m := *r.Methods[0]
		m.Name = name
		return &m
	}
	r.Methods = []*MethodSpec{spec("Zeta"), spec("Alpha"), spec("Mu")}
	Register(r)
	got, _ := Find("a/Indexed")
	for i, m := range got.Methods {
		if m.Index != i {
			t.Errorf("%s.Index = %d, want its position %d", m.Name, m.Index, i)
		}
	}
	if got.Methods[0].Name != "Alpha" {
		t.Errorf("methods not sorted: first is %s", got.Methods[0].Name)
	}
}
