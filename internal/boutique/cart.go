package boutique

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/codec"
	"repro/internal/store"
	"repro/weaver"
)

// Cart is the shopping cart service. It is a routed component: all
// operations for one user are directed to the same replica (§5.2), so the
// per-replica in-memory state behaves like a sharded cache in front of the
// persistent store.
//
// Persistence is optional: when CART_STORE_DIR is set, carts are written
// through to a disk-backed log-structured store and survive replica
// restarts — the "external service" integration pattern of §8.2, with the
// store playing the database's role.
type Cart interface {
	AddItem(ctx context.Context, userID string, item CartItem) error
	GetCart(ctx context.Context, userID string) ([]CartItem, error)
	EmptyCart(ctx context.Context, userID string) error
}

type cartRouter struct{}

func (cartRouter) AddItem(userID string, item CartItem) string { return userID }
func (cartRouter) GetCart(userID string) string                { return userID }
func (cartRouter) EmptyCart(userID string) string              { return userID }

type cart struct {
	weaver.Implements[Cart]
	weaver.WithRouter[cartRouter]

	mu    sync.Mutex
	carts map[string][]CartItem
	db    *store.Store // nil when persistence is disabled
}

// Init prepares the cart state, loading persisted carts when CART_STORE_DIR
// is configured. A persisted cart that does not decode fails Init with an
// error naming its key; it is never dropped silently.
func (c *cart) Init(context.Context) error {
	c.carts = map[string][]CartItem{}
	dir := os.Getenv("CART_STORE_DIR")
	if dir == "" {
		return nil
	}
	db, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("cart: opening store: %w", err)
	}
	var bad error
	err = db.Range("cart/", func(key string, val []byte) bool {
		var items cartRecord
		if err := codec.Parse(val, &items); err != nil {
			bad = fmt.Errorf("record %q: %w", key, err)
			return false
		}
		c.carts[key[len("cart/"):]] = items
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		db.Close()
		return fmt.Errorf("cart: loading persisted carts: %w", err)
	}
	c.db = db
	return nil
}

// cartRecord is one persisted cart. It is written and read with the
// generated []CartItem codec, whose bytes equal the reflective engine's,
// so stores written by either still load.
type cartRecord []CartItem

func (r *cartRecord) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_CartItem(d, (*[]CartItem)(r))
}

// Shutdown closes the persistent store, if any.
func (c *cart) Shutdown(context.Context) error {
	if c.db != nil {
		return c.db.Close()
	}
	return nil
}

// persistLocked writes a user's cart through to disk. Call with c.mu held.
func (c *cart) persistLocked(userID string) error {
	if c.db == nil {
		return nil
	}
	items, ok := c.carts[userID]
	if !ok || len(items) == 0 {
		return c.db.Delete("cart/" + userID)
	}
	e := codec.GetEncoder()
	defer codec.PutEncoder(e)
	weaverEnc_slice_CartItem(e, &items)
	return c.db.Put("cart/"+userID, e.Data()) // Put copies the bytes
}

// AddItem adds (or merges) an item into a user's cart.
func (c *cart) AddItem(_ context.Context, userID string, item CartItem) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	items := c.carts[userID]
	merged := false
	for i := range items {
		if items[i].ProductID == item.ProductID {
			items[i].Quantity += item.Quantity
			merged = true
			break
		}
	}
	if !merged {
		c.carts[userID] = append(items, item)
	}
	return c.persistLocked(userID)
}

// GetCart returns a user's cart items.
func (c *cart) GetCart(_ context.Context, userID string) ([]CartItem, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CartItem(nil), c.carts[userID]...), nil
}

// EmptyCart discards a user's cart.
func (c *cart) EmptyCart(_ context.Context, userID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.carts, userID)
	return c.persistLocked(userID)
}
