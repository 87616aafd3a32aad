package boutique

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/codegen"
)

// These tests pin the contract between weavergen's generated codecs and the
// reflective engine: every generated args/results struct encodes to the
// engine's bytes and round-trips through its generated methods.

func TestGeneratedArgsImplementMarshaler(t *testing.T) {
	// Compile-time check that generated structs are codegen.Messages, as
	// codegen.Conn requires.
	var _ codegen.Message = (*frontend_Checkout_Args)(nil)
	var _ codegen.Message = (*checkout_PlaceOrder_Res)(nil)
}

func roundTrip[T any, P interface {
	*T
	codegen.Message
}](t *testing.T, in T) T {
	t.Helper()
	var gen, eng codec.Encoder
	P(&in).WeaverMarshal(&gen)
	codec.EncodePtr(&eng, &in)
	if !bytes.Equal(gen.Data(), eng.Data()) {
		t.Fatalf("%T: generated encoding %x, engine %x", in, gen.Data(), eng.Data())
	}
	var out T
	if err := codec.Parse(gen.Data(), P(&out)); err != nil {
		t.Fatalf("parse %T: %v", in, err)
	}
	return out
}

func TestCheckoutArgsRoundTrip(t *testing.T) {
	in := frontend_Checkout_Args{P0: PlaceOrderRequest{
		UserID:       "u1",
		UserCurrency: "EUR",
		Address:      Address{StreetAddress: "s", City: "c", State: "st", Country: "cc", ZipCode: 9},
		Email:        "a@b",
		CreditCard:   CreditCard{Number: "4111", CVV: 1, ExpirationYear: 2030, ExpirationMonth: 12},
	}}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("in=%+v out=%+v", in, out)
	}
}

func TestOrderResRoundTrip(t *testing.T) {
	in := checkout_PlaceOrder_Res{
		R0: Order{
			OrderID:            "ORD-1",
			ShippingTrackingID: "TRK-1",
			ShippingCost:       Money{CurrencyCode: "USD", Units: 8, Nanos: 99},
			Items: []OrderItem{
				{Item: CartItem{ProductID: "P", Quantity: 2}, Cost: Money{CurrencyCode: "USD", Units: 1}},
			},
			Total: Money{CurrencyCode: "USD", Units: 9},
		},
		Err:    "boom",
		HasErr: true,
	}
	out := roundTrip(t, in)
	if out.Err != "boom" || !out.HasErr || !reflect.DeepEqual(in.R0, out.R0) {
		t.Errorf("out=%+v", out)
	}
}

func TestQuickGeneratedStructsRoundTrip(t *testing.T) {
	f := func(user, currency, product string, qty int32) bool {
		a := roundTrip(t, frontend_AddToCart_Args{P0: user, P1: product, P2: qty})
		if a.P0 != user || a.P1 != product || a.P2 != qty {
			return false
		}
		h := roundTrip(t, frontend_Home_Args{P0: user, P1: currency})
		return h.P0 == user && h.P1 == currency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCartItemsRoundTrip(t *testing.T) {
	f := func(userID string, ids []string, qty []int32) bool {
		var items []CartItem
		for i := range ids {
			q := int32(1)
			if i < len(qty) {
				q = qty[i]
			}
			items = append(items, CartItem{ProductID: ids[i], Quantity: q})
		}
		in := cart_GetCart_Res{R0: items}
		out := roundTrip(t, in)
		if len(out.R0) != len(in.R0) {
			return false
		}
		for i := range in.R0 {
			if in.R0[i] != out.R0[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
