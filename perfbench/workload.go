package main

import (
	"fmt"
	"math/rand/v2"
)

// opKind is one storefront action. Each maps to exactly one boutique.Frontend
// call.
type opKind int

const (
	opIndex opKind = iota
	opSetCurrency
	opBrowse
	opAddToCart
	opViewCart
	opCheckout
	numOpKinds
)

var opNames = [numOpKinds]string{"index", "setCurrency", "browse", "addToCart", "viewCart", "checkout"}

func (k opKind) String() string { return opNames[k] }

type weight struct {
	kind opKind
	w    int
}

// locustMix is the original Online Boutique locustfile's task weights.
var locustMix = []weight{
	{opIndex, 1}, {opSetCurrency, 2}, {opBrowse, 10},
	{opAddToCart, 2}, {opViewCart, 3}, {opCheckout, 1},
}

// cartMix puts writes beside reads on the cart.
var cartMix = []weight{{opAddToCart, 2}, {opViewCart, 1}, {opCheckout, 1}}

// usersPerCaller is the size of each caller's private user set. Callers
// never share users, so each caller's cart model is exact.
const usersPerCaller = 50

// A workload is one deployment shape plus one traffic mix, driven by a
// fixed number of closed-loop callers.
type workload struct {
	name      string
	colocated bool // all components in one group
	callers   int
	mix       []weight
	// persistCart points CART_STORE_DIR at a fresh directory, so every
	// cart write appends to the store's log.
	persistCart bool
}

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
var workloads = []workload{
	{name: "mix-distributed", callers: 2, mix: locustMix},
	{name: "mix-colocated", colocated: true, callers: 2, mix: locustMix},
	{name: "cart-concurrent", callers: 64, mix: cartMix, persistCart: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated call. Only the fields its kind uses are set.
type op struct {
	kind     opKind
	user     string
	currency string
	product  string
	qty      int32
}

// callerUsers returns the user IDs owned by one caller; the sets of
// different callers are disjoint.
func callerUsers(caller int) []string {
	users := make([]string, usersPerCaller)
	for i := range users {
		users[i] = fmt.Sprintf("u%05d", caller*usersPerCaller+i)
	}
	return users
}

// A generator produces one caller's op sequence from the seed alone. It
// tracks each user's currency and whether the cart holds anything, so a
// checkout of an empty cart is preceded by an add to cart, as the
// locustfile does; no generated op is expected to fail.
type generator struct {
	rng      *rand.Rand
	mix      []weight
	total    int
	users    []string
	currency map[string]string
	items    map[string]int
	pending  *op
}

func newGenerator(seed uint64, caller int, mix []weight) *generator {
	g := &generator{
		rng:      rand.New(rand.NewPCG(seed, uint64(caller))),
		mix:      mix,
		users:    callerUsers(caller),
		currency: map[string]string{},
		items:    map[string]int{},
	}
	for _, w := range mix {
		g.total += w.w
	}
	for _, u := range g.users {
		g.currency[u] = "USD"
	}
	return g
}

func (g *generator) next() op {
	if g.pending != nil {
		o := *g.pending
		g.pending = nil
		g.apply(o)
		return o
	}
	var kind opKind
	r := g.rng.IntN(g.total)
	for _, w := range g.mix {
		if r < w.w {
			kind = w.kind
			break
		}
		r -= w.w
	}
	user := g.users[g.rng.IntN(len(g.users))]
	o := op{kind: kind, user: user, currency: g.currency[user]}
	switch kind {
	case opSetCurrency:
		o.currency = currencies[g.rng.IntN(len(currencies))]
	case opBrowse:
		o.product = catalog[g.rng.IntN(len(catalog))].id
	case opAddToCart:
		o.product = catalog[g.rng.IntN(len(catalog))].id
		o.qty = int32(1 + g.rng.IntN(5))
	case opCheckout:
		if g.items[user] == 0 {
			add := op{kind: opAddToCart, user: user, currency: o.currency,
				product: catalog[g.rng.IntN(len(catalog))].id, qty: int32(1 + g.rng.IntN(5))}
			g.pending = &o
			g.apply(add)
			return add
		}
	}
	g.apply(o)
	return o
}

func (g *generator) apply(o op) {
	switch o.kind {
	case opSetCurrency:
		g.currency[o.user] = o.currency
	case opAddToCart:
		g.items[o.user]++
	case opCheckout:
		g.items[o.user] = 0
	}
}
