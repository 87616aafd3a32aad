package boutique

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/codegen"
)

// checkoutOrder is a representative PlaceOrder result: three line items
// and a full address.
func checkoutOrder() checkout_PlaceOrder_Res {
	return checkout_PlaceOrder_Res{R0: Order{
		OrderID:            "ORD-00004217",
		ShippingTrackingID: "TRK-00AB12CD34EF",
		ShippingCost:       Money{CurrencyCode: "USD", Units: 8, Nanos: 990000000},
		ShippingAddress: Address{
			StreetAddress: "1600 Amphitheatre Parkway",
			City:          "Mountain View", State: "CA", Country: "USA", ZipCode: 94043,
		},
		Items: []OrderItem{
			{Item: CartItem{ProductID: "OLJCESPC7Z", Quantity: 2}, Cost: Money{CurrencyCode: "USD", Units: 39, Nanos: 980000000}},
			{Item: CartItem{ProductID: "6E92ZMYYFZ", Quantity: 1}, Cost: Money{CurrencyCode: "USD", Units: 8, Nanos: 990000000}},
			{Item: CartItem{ProductID: "1YMWWN1N4O", Quantity: 1}, Cost: Money{CurrencyCode: "USD", Units: 109, Nanos: 990000000}},
		},
		Total: Money{CurrencyCode: "USD", Units: 167, Nanos: 950000000},
	}}
}

// homePage is the largest payload the boutique sends: the whole catalog.
func homePage() frontend_Home_Res {
	return frontend_Home_Res{R0: HomePage{
		Products:   catalogData,
		Currencies: []string{"EUR", "USD", "JPY", "GBP", "CAD"},
		Ad:         Ad{RedirectURL: "/product/OLJCESPC7Z", Text: "Sunglasses for sale"},
	}}
}

// heapSlices counts the non-empty slices reachable from v: the backing
// arrays a decoder must allocate.
func heapSlices(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() > 0 {
			n++
		}
		for i := 0; i < v.Len(); i++ {
			n += heapSlices(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += heapSlices(v.Field(i))
		}
	}
	return n
}

// freshStrings walks two decodes of the same value side by side and counts
// the non-empty strings that do not share memory between them: the strings
// the codec's intern table did not serve, each a fresh copy. It also
// counts the non-empty strings.
func freshStrings(a, b reflect.Value) (fresh, all int) {
	switch a.Kind() {
	case reflect.String:
		if a.Len() > 0 {
			all++
			if unsafe.StringData(a.String()) != unsafe.StringData(b.String()) {
				fresh++
			}
		}
	case reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			f, n := freshStrings(a.Index(i), b.Index(i))
			fresh, all = fresh+f, all+n
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f, n := freshStrings(a.Field(i), b.Field(i))
			fresh, all = fresh+f, all+n
		}
	}
	return fresh, all
}

// TestAllocsGeneratedCodec pins the cost of the generated codecs on the
// boutique's HomePage and Order results: encoding into a pooled encoder
// allocates nothing, and decoding allocates exactly once per non-empty
// slice (its backing array) and once per non-empty string that the
// intern table does not serve (its bytes) — no decoder, no reflection, no
// per-element boxing. A string served by the table is the same memory in
// every decode; a fresh copy is not.
func TestAllocsGeneratedCodec(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	t.Run("HomePage", func(t *testing.T) { checkCodecAllocs(t, homePage()) })
	t.Run("Order", func(t *testing.T) { checkCodecAllocs(t, checkoutOrder()) })
}

func checkCodecAllocs[T any, P interface {
	*T
	codegen.Message
}](t *testing.T, in T) {
	enc := testing.AllocsPerRun(200, func() {
		e := codec.GetEncoder()
		P(&in).WeaverMarshal(e)
		codec.PutEncoder(e)
	})
	if enc != 0 {
		t.Errorf("encoding %T allocates %.0f times, want 0", in, enc)
	}

	e := codec.NewEncoder(0)
	P(&in).WeaverMarshal(e)
	data := e.Data()
	var out T
	decode := func() {
		var zero T
		out = zero
		if err := codec.Parse(data, P(&out)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		decode() // let the intern table settle
	}
	dec := testing.AllocsPerRun(200, decode)
	prev := out
	decode()
	fresh, all := freshStrings(reflect.ValueOf(prev), reflect.ValueOf(out))
	want := heapSlices(reflect.ValueOf(in)) + fresh
	t.Logf("%T: %d bytes, decode %.0f allocs: %d non-empty slices, %d of %d non-empty strings copied",
		in, len(data), dec, want-fresh, fresh, all)
	if dec != float64(want) {
		t.Errorf("decoding %T allocates %.0f times, want %d (one per non-empty slice and per copied string)", in, dec, want)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("decoded %+v, want %+v", out, in)
	}
}

// BenchmarkOrderCodec round-trips the checkout Order result through the
// generated codec and through the reflective engine on the same value
// (EXPERIMENTS.md A1). Both write the same bytes.
func BenchmarkOrderCodec(b *testing.B) {
	in := checkoutOrder()
	b.Run("Generated", func(b *testing.B) {
		b.ReportAllocs()
		var out checkout_PlaceOrder_Res
		var wire int
		for i := 0; i < b.N; i++ {
			e := codec.GetEncoder()
			in.WeaverMarshal(e)
			wire = e.Len()
			out = checkout_PlaceOrder_Res{}
			if err := codec.Parse(e.Data(), &out); err != nil {
				b.Fatal(err)
			}
			codec.PutEncoder(e)
		}
		b.ReportMetric(float64(wire), "wire_bytes")
	})
	b.Run("Reflective", func(b *testing.B) {
		b.ReportAllocs()
		var out checkout_PlaceOrder_Res
		var wire int
		for i := 0; i < b.N; i++ {
			e := codec.GetEncoder()
			codec.EncodePtr(e, &in)
			wire = e.Len()
			out = checkout_PlaceOrder_Res{}
			if err := codec.Unmarshal(e.Data(), &out); err != nil {
				b.Fatal(err)
			}
			codec.PutEncoder(e)
		}
		b.ReportMetric(float64(wire), "wire_bytes")
	})
}
