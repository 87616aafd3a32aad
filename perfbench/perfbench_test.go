package main

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/boutique"
)

func ops(seed uint64, caller, n int) []op {
	g := newGenerator(seed, caller, locustMix)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSeedDeterminesSequence(t *testing.T) {
	if !reflect.DeepEqual(ops(7, 0, 500), ops(7, 0, 500)) {
		t.Fatal("the same seed gave different op sequences")
	}
	if reflect.DeepEqual(ops(7, 0, 500), ops(8, 0, 500)) {
		t.Fatal("different seeds gave the same op sequence")
	}
	if reflect.DeepEqual(ops(7, 0, 500), ops(7, 1, 500)) {
		t.Fatal("different callers got the same op sequence")
	}
}

func TestCallerUsersDisjoint(t *testing.T) {
	owner := map[string]int{}
	for c := 0; c < 64; c++ {
		for _, u := range callerUsers(c) {
			if prev, ok := owner[u]; ok {
				t.Fatalf("user %s belongs to callers %d and %d", u, prev, c)
			}
			owner[u] = c
		}
		for _, o := range ops(3, c, 200) {
			if owner[o.user] != c {
				t.Fatalf("caller %d generated an op for user %s of caller %d", c, o.user, owner[o.user])
			}
		}
	}
}

func TestCheckoutNeverOfEmptyCart(t *testing.T) {
	g := newGenerator(5, 0, cartMix)
	items := map[string]int{}
	for i := 0; i < 2000; i++ {
		o := g.next()
		switch o.kind {
		case opAddToCart:
			items[o.user]++
		case opCheckout:
			if items[o.user] == 0 {
				t.Fatalf("op %d: checkout of %s's empty cart", i, o.user)
			}
			items[o.user] = 0
		}
	}
}

// pricedCart builds the cart page the program should return for items.
func pricedCart(items []boutique.CartItem, code string) boutique.CartPage {
	var p boutique.CartPage
	var total int64
	for _, it := range items {
		price, _ := priceOf(it.ProductID)
		cost := nanosOf(convert(price, code)) * int64(it.Quantity)
		total += cost
		p.Items = append(p.Items, boutique.OrderItem{Item: it, Cost: money(cost, code)})
	}
	ship := nanosOf(convert(shippingUSD, code))
	p.ShippingCost = money(ship, code)
	p.Total = money(total+ship, code)
	return p
}

func money(nanos int64, code string) boutique.Money {
	return boutique.Money{CurrencyCode: code, Units: nanos / 1e9, Nanos: int32(nanos % 1e9)}
}

func TestCartModelFlagsWrongCart(t *testing.T) {
	m := cartModel{}
	m.add("u", "OLJCESPC7Z", 2)
	m.add("u", "66VCHSJNUP", 1)
	m.add("u", "OLJCESPC7Z", 3)
	want := []boutique.CartItem{{ProductID: "OLJCESPC7Z", Quantity: 5}, {ProductID: "66VCHSJNUP", Quantity: 1}}
	if !reflect.DeepEqual(m["u"], want) {
		t.Fatalf("model = %+v, want %+v", m["u"], want)
	}
	good := pricedCart(want, "JPY")
	if err := checkCart(good, m["u"], "JPY"); err != nil {
		t.Fatalf("a correct cart was flagged: %v", err)
	}

	wrongQty := pricedCart([]boutique.CartItem{{ProductID: "OLJCESPC7Z", Quantity: 4}, {ProductID: "66VCHSJNUP", Quantity: 1}}, "JPY")
	wrongTotal := pricedCart(want, "JPY")
	wrongTotal.Total.Nanos++
	wrongCurrency := pricedCart(want, "EUR")
	missing := pricedCart(want[:1], "JPY")
	for name, p := range map[string]boutique.CartPage{
		"quantity": wrongQty, "total": wrongTotal, "currency": wrongCurrency, "missing item": missing,
	} {
		if err := checkCart(p, m["u"], "JPY"); err == nil {
			t.Errorf("a cart with a wrong %s was not flagged", name)
		}
	}
	if err := checkCart(boutique.CartPage{ShippingCost: money(0, "GBP"), Total: money(0, "GBP")}, nil, "GBP"); err != nil {
		t.Errorf("an empty cart was flagged: %v", err)
	}
}

func TestConvertMatchesProgram(t *testing.T) {
	price, _ := priceOf("A1B2C3D4E5")
	if got := convert(price, "USD"); got != price {
		t.Errorf("same-currency convert changed the amount: %+v", got)
	}
	// 789.50 USD -> EUR -> JPY with the dataset's rates.
	got := convert(price, "JPY")
	if want := (boutique.Money{CurrencyCode: "JPY", Units: 88273, Nanos: 153471915}); got != want {
		t.Errorf("convert(789.50 USD, JPY) = %+v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60] (overlapping, so
	// they cover 50) and c [90,120] (clipped to 10); a has child d [15,25].
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "d", ID: 5, Parent: 2, Start: 15, End: 25},
		{Name: "d", ID: 6, Start: 200, End: 204},
	}
	got := selfTimes(spans)
	want := map[string]selfStat{
		"root": {count: 1, totalNanos: 100, selfNanos: 40},
		"a":    {count: 1, totalNanos: 30, selfNanos: 20},
		"b":    {count: 1, totalNanos: 30, selfNanos: 30},
		"c":    {count: 1, totalNanos: 30, selfNanos: 30},
		"d":    {count: 2, totalNanos: 14, selfNanos: 14},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		want []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, program reports %d", len(c.got), c.what, len(c.want))
			continue
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program reports %+v", c.what, i, g, m)
			}
		}
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	var exact []time.Duration
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(300*time.Microsecond))
		h.add(d, false)
		exact = append(exact, d)
	}
	slices.Sort(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), percentile(exact, q)
		if diff := math.Abs(float64(got-want)) / float64(want); diff > 1.0/histSub {
			t.Errorf("q%.2f = %v, want %v within 1/%d", q, got, want, histSub)
		}
	}
	for i := 0; i < 1000; i++ {
		h.add(time.Millisecond, true)
	}
	if got := h.quantile(0.99); got < 30*time.Minute {
		t.Errorf("with 5%% failed ops q0.99 = %v, want beyond the range", got)
	}
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 30} {
		lower, width := histBucket(histIndex(ns))
		if float64(ns) < lower || float64(ns) >= lower+width {
			t.Errorf("%d ns falls in bucket [%v, %v)", ns, lower, lower+width)
		}
	}
}
