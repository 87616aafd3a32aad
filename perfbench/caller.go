package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/boutique"
)

// checkoutCard is a valid VISA test card that does not expire.
var checkoutCard = boutique.CreditCard{Number: "4432-8015-6152-0454", CVV: 672, ExpirationYear: 2039, ExpirationMonth: 1}

var checkoutAddress = boutique.Address{StreetAddress: "1600 Amphitheatre Pkwy", City: "Mountain View", State: "CA", Country: "USA", ZipCode: 94043}

// A window is the measured phase, split into equal sub-windows. Each op
// counts in the sub-window it completes in.
type window struct {
	start time.Time
	sub   time.Duration
	n     int
	// traced makes the odd sub-windows record spans, so one run measures
	// the ops rate with and without span recording.
	traced bool
	hists  []latHist // op latencies per sub-window
}

func (w *window) index(t time.Time) int {
	return min(max(int(t.Sub(w.start)/w.sub), 0), w.n-1)
}

func (w *window) spansOn(k int) bool { return w.traced && k%2 == 1 }

// A caller is one closed-loop client: it sends its next op only after the
// previous one has returned. It owns its users, so its cart model is
// exact.
type caller struct {
	idx     int
	fe      boutique.Frontend
	gen     *generator
	model   cartModel
	tainted map[string]bool // users whose cart state is unknown after a failure
	orders  []uint64        // FNV-64a hashes of the order IDs received
	epoch   time.Time       // span time zero

	// Responses of the op in flight, reused across ops.
	home    boutique.HomePage
	product boutique.ProductPage
	cart    boutique.CartPage
	order   boutique.Order

	// Responses kept for the codec probe: the first of each type, with
	// carts and orders of at least two items preferred.
	sample struct {
		home    *boutique.HomePage
		product *boutique.ProductPage
		cart    *boutique.CartPage
		order   *boutique.Order
	}

	// Per sub-window of the measured window.
	ops, failed []int
	// Total latency of the successful ops in the window.
	latSum  time.Duration
	latN    int
	spans   []span
	spanSeq uint64

	outsideErrs int // failures outside the window (warm-up, sweep)
	firstErr    error
}

func newCaller(idx int, fe boutique.Frontend, seed uint64, mix []weight, epoch time.Time) *caller {
	return &caller{
		idx:     idx,
		fe:      fe,
		gen:     newGenerator(seed, idx, mix),
		model:   cartModel{},
		tainted: map[string]bool{},
		epoch:   epoch,
	}
}

// do sends one op and keeps its response for check.
func (c *caller) do(ctx context.Context, o op) error {
	var err error
	switch o.kind {
	case opIndex, opSetCurrency:
		c.home, err = c.fe.Home(ctx, o.user, o.currency)
	case opBrowse:
		c.product, err = c.fe.Product(ctx, o.user, o.product, o.currency)
	case opAddToCart:
		err = c.fe.AddToCart(ctx, o.user, o.product, o.qty)
	case opViewCart:
		c.cart, err = c.fe.ViewCart(ctx, o.user, o.currency)
	case opCheckout:
		c.order, err = c.fe.Checkout(ctx, boutique.PlaceOrderRequest{
			UserID: o.user, UserCurrency: o.currency, Address: checkoutAddress,
			Email: o.user + "@example.com", CreditCard: checkoutCard,
		})
	}
	return err
}

// check verifies the response of a successful op against the model and
// advances the model.
func (c *caller) check(o op) error {
	if c.tainted[o.user] {
		return nil
	}
	switch o.kind {
	case opIndex, opSetCurrency:
		if c.sample.home == nil {
			p := c.home
			c.sample.home = &p
		}
		return checkHome(c.home, o.currency)
	case opBrowse:
		if c.sample.product == nil {
			p := c.product
			c.sample.product = &p
		}
		return checkProduct(c.product, o.product, o.currency)
	case opAddToCart:
		c.model.add(o.user, o.product, o.qty)
	case opViewCart:
		if c.sample.cart == nil || len(c.sample.cart.Items) < 2 && len(c.cart.Items) > len(c.sample.cart.Items) {
			p := c.cart
			c.sample.cart = &p
		}
		return checkCart(c.cart, c.model[o.user], o.currency)
	case opCheckout:
		want := c.model[o.user]
		delete(c.model, o.user)
		h := fnv.New64a()
		_, _ = h.Write([]byte(c.order.OrderID))
		c.orders = append(c.orders, h.Sum64())
		if c.sample.order == nil || len(c.sample.order.Items) < 2 && len(c.order.Items) > len(c.sample.order.Items) {
			p := c.order
			c.sample.order = &p
		}
		return checkOrder(c.order, want, o.currency)
	}
	return nil
}

// exec sends an op, checks it, and returns its latency and any failure.
func (c *caller) exec(ctx context.Context, o op) (t0, t1 time.Time, err error) {
	t0 = time.Now()
	err = c.do(ctx, o)
	t1 = time.Now()
	if err == nil {
		err = c.check(o)
	}
	if err != nil {
		c.tainted[o.user] = true
		err = fmt.Errorf("%s for %s: %w", o.kind, o.user, err)
	}
	return t0, t1, err
}

func (c *caller) noteOutside(err error) {
	c.outsideErrs++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run sends ops until end. With a window it records every op completing
// in it.
func (c *caller) run(ctx context.Context, end time.Time, w *window) {
	if w != nil && c.ops == nil {
		c.ops, c.failed = make([]int, w.n), make([]int, w.n)
	}
	for time.Now().Before(end) {
		o := c.gen.next()
		t0, t1, err := c.exec(ctx, o)
		if w == nil {
			if err != nil {
				c.noteOutside(err)
			}
			continue
		}
		k := w.index(t1)
		c.ops[k]++
		w.hists[k].add(t1.Sub(t0), err != nil)
		if err != nil {
			c.failed[k]++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		c.latSum += t1.Sub(t0)
		c.latN++
		if w.spansOn(k) {
			c.spanSeq++
			id := uint64(c.idx+1)<<40 | c.spanSeq
			c.spans = append(c.spans, span{Name: spanNames[o.kind], Trace: id, ID: id,
				Start: t0.Sub(c.epoch).Nanoseconds(), End: t1.Sub(c.epoch).Nanoseconds()})
		}
	}
}

// sweep views every cart the caller owns and checks it against the model.
func (c *caller) sweep(ctx context.Context) {
	for _, u := range c.gen.users {
		if c.tainted[u] {
			continue
		}
		o := op{kind: opViewCart, user: u, currency: c.gen.currency[u]}
		if _, _, err := c.exec(ctx, o); err != nil {
			c.noteOutside(fmt.Errorf("final sweep: %w", err))
		}
	}
}
