package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/boutique"
)

// Reference data: the catalog's USD prices and the EUR-based rates of the
// currencies the workloads use, as in the Online Boutique dataset. Responses
// are checked against values computed here, not by the program.
var catalog = []struct {
	id    string
	units int64
	nanos int32
}{
	{"OLJCESPC7Z", 19, 990000000}, {"66VCHSJNUP", 18, 990000000},
	{"1YMWWN1N4O", 109, 990000000}, {"L9ECAV7KIM", 89, 990000000},
	{"2ZYFJ3GM2N", 24, 990000000}, {"0PUK6V6EV0", 18, 990000000},
	{"LS4PSXUNUM", 18, 490000000}, {"9SIQT8TOJO", 5, 490000000},
	{"6E92ZMYYFZ", 8, 990000000}, {"A1B2C3D4E5", 789, 500000000},
	{"F6G7H8I9J0", 12, 300000000}, {"K1L2M3N4O5", 67, 990000000},
}

var currencies = []string{"EUR", "USD", "JPY", "GBP", "TRY", "CAD"}

var rates = map[string]float64{
	"EUR": 1.0, "USD": 1.1305, "JPY": 126.40, "GBP": 0.85970, "TRY": 6.1247, "CAD": 1.5128,
}

// shippingUSD is the flat shipping quote for a non-empty cart.
var shippingUSD = boutique.Money{CurrencyCode: "USD", Units: 8, Nanos: 990000000}

// convert converts a USD amount to code, with the currency service's
// arithmetic: through EUR in float64, then truncated units and rounded
// nanos.
func convert(m boutique.Money, code string) boutique.Money {
	if m.CurrencyCode == code {
		return m
	}
	euros := (float64(m.Units) + float64(m.Nanos)/1e9) / rates[m.CurrencyCode]
	target := euros * rates[code]
	units := int64(math.Trunc(target))
	nanos := int32(math.Round((target - math.Trunc(target)) * 1e9))
	if nanos >= 1e9 {
		units++
		nanos -= 1e9
	}
	return boutique.Money{CurrencyCode: code, Units: units, Nanos: nanos}
}

func nanosOf(m boutique.Money) int64 { return m.Units*1e9 + int64(m.Nanos) }

func priceOf(product string) (boutique.Money, bool) {
	for _, p := range catalog {
		if p.id == product {
			return boutique.Money{CurrencyCode: "USD", Units: p.units, Nanos: p.nanos}, true
		}
	}
	return boutique.Money{}, false
}

// checkMoney reports whether got is want nanos in currency code.
func checkMoney(what string, got boutique.Money, code string, want int64) error {
	if got.CurrencyCode != code || nanosOf(got) != want {
		return fmt.Errorf("%s: got %d.%09d %s, want %d nanos %s", what, got.Units, got.Nanos, got.CurrencyCode, want, code)
	}
	return nil
}

// cartModel is the exact expected content of every cart one caller owns:
// items in insertion order, quantities merged per product.
type cartModel map[string][]boutique.CartItem

func (m cartModel) add(user, product string, qty int32) {
	items := m[user]
	for i := range items {
		if items[i].ProductID == product {
			items[i].Quantity += qty
			return
		}
	}
	m[user] = append(items, boutique.CartItem{ProductID: product, Quantity: qty})
}

// checkItems checks priced items against the model and returns their
// total cost in nanos of code.
func checkItems(got []boutique.OrderItem, want []boutique.CartItem, code string) (int64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("got %d items, want %d", len(got), len(want))
	}
	var total int64
	for i, it := range got {
		if it.Item != want[i] {
			return 0, fmt.Errorf("item %d: got %+v, want %+v", i, it.Item, want[i])
		}
		price, ok := priceOf(it.Item.ProductID)
		if !ok {
			return 0, fmt.Errorf("item %d: unknown product %s", i, it.Item.ProductID)
		}
		cost := nanosOf(convert(price, code)) * int64(it.Item.Quantity)
		if err := checkMoney(fmt.Sprintf("item %d cost", i), it.Cost, code, cost); err != nil {
			return 0, err
		}
		total += cost
	}
	return total, nil
}

// checkTotals checks the shipping cost and total of a priced cart.
func checkTotals(shipping, total boutique.Money, items int64, nonEmpty bool, code string) error {
	var ship int64
	if nonEmpty {
		ship = nanosOf(convert(shippingUSD, code))
	}
	if err := checkMoney("shipping", shipping, code, ship); err != nil {
		return err
	}
	return checkMoney("total", total, code, items+ship)
}

func checkCart(p boutique.CartPage, want []boutique.CartItem, code string) error {
	sum, err := checkItems(p.Items, want, code)
	if err != nil {
		return fmt.Errorf("viewCart: %w", err)
	}
	if err := checkTotals(p.ShippingCost, p.Total, sum, len(want) > 0, code); err != nil {
		return fmt.Errorf("viewCart: %w", err)
	}
	return nil
}

func checkOrder(o boutique.Order, want []boutique.CartItem, code string) error {
	if o.OrderID == "" {
		return fmt.Errorf("checkout: empty order id")
	}
	sum, err := checkItems(o.Items, want, code)
	if err != nil {
		return fmt.Errorf("checkout: %w", err)
	}
	if err := checkTotals(o.ShippingCost, o.Total, sum, true, code); err != nil {
		return fmt.Errorf("checkout: %w", err)
	}
	return nil
}

func checkHome(p boutique.HomePage, code string) error {
	if len(p.Products) != len(catalog) {
		return fmt.Errorf("home: got %d products, want %d", len(p.Products), len(catalog))
	}
	for i, pr := range p.Products {
		if pr.ID != catalog[i].id {
			return fmt.Errorf("home: product %d is %s, want %s", i, pr.ID, catalog[i].id)
		}
		price, _ := priceOf(pr.ID)
		if err := checkMoney("home price of "+pr.ID, pr.Price, code, nanosOf(convert(price, code))); err != nil {
			return err
		}
	}
	if !slices.Contains(p.Currencies, code) {
		return fmt.Errorf("home: currency list lacks %s", code)
	}
	return nil
}

func checkProduct(p boutique.ProductPage, id, code string) error {
	if p.Product.ID != id {
		return fmt.Errorf("product: got %s, want %s", p.Product.ID, id)
	}
	price, _ := priceOf(id)
	if err := checkMoney("product price", p.Price, code, nanosOf(convert(price, code))); err != nil {
		return err
	}
	if len(p.Recommendations) > 5 || slices.Contains(p.Recommendations, id) {
		return fmt.Errorf("product: bad recommendations %v for %s", p.Recommendations, id)
	}
	return nil
}
