// Code generated by weavergen. DO NOT EDIT.

package boutique

import (
	"context"
	"reflect"
	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/routing"
	"repro/weaver"
)

// Compile-time checks for component AdService.
var _ weaver.InstanceOf[AdService] = (*adService)(nil)
var _ AdService = (*adService)(nil)

type adService_GetAds_Args struct {
	P0 []string
}

// WeaverMarshal implements codec.Marshaler.
func (x *adService_GetAds_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_string(e, &x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *adService_GetAds_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_string(d, &x.P0)
}

type adService_GetAds_Res struct {
	R0     []Ad
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *adService_GetAds_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_Ad(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *adService_GetAds_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_Ad(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var adService_GetAds_Args_pool codegen.Pool[adService_GetAds_Args, *adService_GetAds_Args]
var adService_GetAds_Res_pool codegen.Pool[adService_GetAds_Res, *adService_GetAds_Res]

type adService_ClientStub struct {
	conn    codegen.Conn
	mGetAds *codegen.MethodSpec
}

var _ AdService = adService_ClientStub{}

func (s adService_ClientStub) GetAds(ctx context.Context, a0 []string) ([]Ad, error) {
	args := adService_GetAds_Args_pool.Get()
	args.P0 = a0
	res := adService_GetAds_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/AdService", s.mGetAds, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	adService_GetAds_Args_pool.Put(args)
	adService_GetAds_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mAdServiceGetAds := &codegen.MethodSpec{
		Name:    "GetAds",
		NewArgs: func() codegen.Message { return new(adService_GetAds_Args) },
		NewRes:  func() codegen.Message { return new(adService_GetAds_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*adService_GetAds_Args)
			r := res.(*adService_GetAds_Res)
			_ = a
			var err error
			r.R0, err = impl.(AdService).GetAds(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Priority: 1,
	}
	mAdServiceGetAds.ArgsPool = &adService_GetAds_Args_pool
	mAdServiceGetAds.ResPool = &adService_GetAds_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/AdService",
		Iface:   reflect.TypeOf((*AdService)(nil)).Elem(),
		Impl:    reflect.TypeOf(adService{}),
		Methods: []*codegen.MethodSpec{mAdServiceGetAds},
		ClientStub: func(conn codegen.Conn) any {
			return adService_ClientStub{conn: conn, mGetAds: mAdServiceGetAds}
		},
	})
}

// Compile-time checks for component Cart.
var _ weaver.InstanceOf[Cart] = (*cart)(nil)
var _ Cart = (*cart)(nil)

type cart_AddItem_Args struct {
	P0 string
	P1 CartItem
}

// WeaverMarshal implements codec.Marshaler.
func (x *cart_AddItem_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	weaverEnc_CartItem(e, &x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *cart_AddItem_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	weaverDec_CartItem(d, &x.P1)
}

type cart_AddItem_Res struct {
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *cart_AddItem_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *cart_AddItem_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var cart_AddItem_Args_pool codegen.Pool[cart_AddItem_Args, *cart_AddItem_Args]
var cart_AddItem_Res_pool codegen.Pool[cart_AddItem_Res, *cart_AddItem_Res]

type cart_EmptyCart_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *cart_EmptyCart_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *cart_EmptyCart_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type cart_EmptyCart_Res struct {
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *cart_EmptyCart_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *cart_EmptyCart_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var cart_EmptyCart_Args_pool codegen.Pool[cart_EmptyCart_Args, *cart_EmptyCart_Args]
var cart_EmptyCart_Res_pool codegen.Pool[cart_EmptyCart_Res, *cart_EmptyCart_Res]

type cart_GetCart_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *cart_GetCart_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *cart_GetCart_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type cart_GetCart_Res struct {
	R0     []CartItem
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *cart_GetCart_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_CartItem(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *cart_GetCart_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_CartItem(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var cart_GetCart_Args_pool codegen.Pool[cart_GetCart_Args, *cart_GetCart_Args]
var cart_GetCart_Res_pool codegen.Pool[cart_GetCart_Res, *cart_GetCart_Res]

type cart_ClientStub struct {
	conn       codegen.Conn
	mAddItem   *codegen.MethodSpec
	mEmptyCart *codegen.MethodSpec
	mGetCart   *codegen.MethodSpec
}

var _ Cart = cart_ClientStub{}

func (s cart_ClientStub) AddItem(ctx context.Context, a0 string, a1 CartItem) error {
	args := cart_AddItem_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := cart_AddItem_Res_pool.Get()
	var router cartRouter
	shard := routing.KeyHash(router.AddItem(a0, a1))
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Cart", s.mAddItem, args, res, shard, true)
	rerr := codegen.WireToError(res.Err, res.HasErr)
	cart_AddItem_Args_pool.Put(args)
	cart_AddItem_Res_pool.Put(res)
	if err != nil {
		return err
	}
	return rerr
}

func (s cart_ClientStub) EmptyCart(ctx context.Context, a0 string) error {
	args := cart_EmptyCart_Args_pool.Get()
	args.P0 = a0
	res := cart_EmptyCart_Res_pool.Get()
	var router cartRouter
	shard := routing.KeyHash(router.EmptyCart(a0))
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Cart", s.mEmptyCart, args, res, shard, true)
	rerr := codegen.WireToError(res.Err, res.HasErr)
	cart_EmptyCart_Args_pool.Put(args)
	cart_EmptyCart_Res_pool.Put(res)
	if err != nil {
		return err
	}
	return rerr
}

func (s cart_ClientStub) GetCart(ctx context.Context, a0 string) ([]CartItem, error) {
	args := cart_GetCart_Args_pool.Get()
	args.P0 = a0
	res := cart_GetCart_Res_pool.Get()
	var router cartRouter
	shard := routing.KeyHash(router.GetCart(a0))
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Cart", s.mGetCart, args, res, shard, true)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	cart_GetCart_Args_pool.Put(args)
	cart_GetCart_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mCartAddItem := &codegen.MethodSpec{
		Name:    "AddItem",
		NewArgs: func() codegen.Message { return new(cart_AddItem_Args) },
		NewRes:  func() codegen.Message { return new(cart_AddItem_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*cart_AddItem_Args)
			r := res.(*cart_AddItem_Res)
			_ = a
			var err error
			err = impl.(Cart).AddItem(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Shard: func(args any) uint64 {
			a := args.(*cart_AddItem_Args)
			_ = a
			var router cartRouter
			return routing.KeyHash(router.AddItem(a.P0, a.P1))
		},
	}
	mCartAddItem.ArgsPool = &cart_AddItem_Args_pool
	mCartAddItem.ResPool = &cart_AddItem_Res_pool
	mCartEmptyCart := &codegen.MethodSpec{
		Name:    "EmptyCart",
		NewArgs: func() codegen.Message { return new(cart_EmptyCart_Args) },
		NewRes:  func() codegen.Message { return new(cart_EmptyCart_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*cart_EmptyCart_Args)
			r := res.(*cart_EmptyCart_Res)
			_ = a
			var err error
			err = impl.(Cart).EmptyCart(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Shard: func(args any) uint64 {
			a := args.(*cart_EmptyCart_Args)
			_ = a
			var router cartRouter
			return routing.KeyHash(router.EmptyCart(a.P0))
		},
	}
	mCartEmptyCart.ArgsPool = &cart_EmptyCart_Args_pool
	mCartEmptyCart.ResPool = &cart_EmptyCart_Res_pool
	mCartGetCart := &codegen.MethodSpec{
		Name:    "GetCart",
		NewArgs: func() codegen.Message { return new(cart_GetCart_Args) },
		NewRes:  func() codegen.Message { return new(cart_GetCart_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*cart_GetCart_Args)
			r := res.(*cart_GetCart_Res)
			_ = a
			var err error
			r.R0, err = impl.(Cart).GetCart(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Shard: func(args any) uint64 {
			a := args.(*cart_GetCart_Args)
			_ = a
			var router cartRouter
			return routing.KeyHash(router.GetCart(a.P0))
		},
	}
	mCartGetCart.ArgsPool = &cart_GetCart_Args_pool
	mCartGetCart.ResPool = &cart_GetCart_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Cart",
		Iface:   reflect.TypeOf((*Cart)(nil)).Elem(),
		Impl:    reflect.TypeOf(cart{}),
		Routed:  true,
		Methods: []*codegen.MethodSpec{mCartAddItem, mCartEmptyCart, mCartGetCart},
		ClientStub: func(conn codegen.Conn) any {
			return cart_ClientStub{conn: conn, mAddItem: mCartAddItem, mEmptyCart: mCartEmptyCart, mGetCart: mCartGetCart}
		},
	})
}

// Compile-time checks for component Checkout.
var _ weaver.InstanceOf[Checkout] = (*checkout)(nil)
var _ Checkout = (*checkout)(nil)

type checkout_PlaceOrder_Args struct {
	P0 PlaceOrderRequest
}

// WeaverMarshal implements codec.Marshaler.
func (x *checkout_PlaceOrder_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_PlaceOrderRequest(e, &x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *checkout_PlaceOrder_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_PlaceOrderRequest(d, &x.P0)
}

type checkout_PlaceOrder_Res struct {
	R0     Order
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *checkout_PlaceOrder_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Order(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *checkout_PlaceOrder_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Order(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var checkout_PlaceOrder_Args_pool codegen.Pool[checkout_PlaceOrder_Args, *checkout_PlaceOrder_Args]
var checkout_PlaceOrder_Res_pool codegen.Pool[checkout_PlaceOrder_Res, *checkout_PlaceOrder_Res]

type checkout_ClientStub struct {
	conn        codegen.Conn
	mPlaceOrder *codegen.MethodSpec
}

var _ Checkout = checkout_ClientStub{}

func (s checkout_ClientStub) PlaceOrder(ctx context.Context, a0 PlaceOrderRequest) (Order, error) {
	args := checkout_PlaceOrder_Args_pool.Get()
	args.P0 = a0
	res := checkout_PlaceOrder_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Checkout", s.mPlaceOrder, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	checkout_PlaceOrder_Args_pool.Put(args)
	checkout_PlaceOrder_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mCheckoutPlaceOrder := &codegen.MethodSpec{
		Name:    "PlaceOrder",
		NewArgs: func() codegen.Message { return new(checkout_PlaceOrder_Args) },
		NewRes:  func() codegen.Message { return new(checkout_PlaceOrder_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*checkout_PlaceOrder_Args)
			r := res.(*checkout_PlaceOrder_Res)
			_ = a
			var err error
			r.R0, err = impl.(Checkout).PlaceOrder(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Priority: 3,
	}
	mCheckoutPlaceOrder.ArgsPool = &checkout_PlaceOrder_Args_pool
	mCheckoutPlaceOrder.ResPool = &checkout_PlaceOrder_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Checkout",
		Iface:   reflect.TypeOf((*Checkout)(nil)).Elem(),
		Impl:    reflect.TypeOf(checkout{}),
		Methods: []*codegen.MethodSpec{mCheckoutPlaceOrder},
		ClientStub: func(conn codegen.Conn) any {
			return checkout_ClientStub{conn: conn, mPlaceOrder: mCheckoutPlaceOrder}
		},
	})
}

// Compile-time checks for component Currency.
var _ weaver.InstanceOf[Currency] = (*currency)(nil)
var _ Currency = (*currency)(nil)

type currency_Convert_Args struct {
	P0 Money
	P1 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *currency_Convert_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Money(e, &x.P0)
	e.String(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *currency_Convert_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Money(d, &x.P0)
	x.P1 = d.String()
}

type currency_Convert_Res struct {
	R0     Money
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *currency_Convert_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Money(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *currency_Convert_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Money(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var currency_Convert_Args_pool codegen.Pool[currency_Convert_Args, *currency_Convert_Args]
var currency_Convert_Res_pool codegen.Pool[currency_Convert_Res, *currency_Convert_Res]

type currency_GetSupportedCurrencies_Args struct {
}

// WeaverMarshal implements codec.Marshaler.
func (x *currency_GetSupportedCurrencies_Args) WeaverMarshal(e *codec.Encoder) {
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *currency_GetSupportedCurrencies_Args) WeaverUnmarshal(d *codec.Decoder) {
}

type currency_GetSupportedCurrencies_Res struct {
	R0     []string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *currency_GetSupportedCurrencies_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_string(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *currency_GetSupportedCurrencies_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_string(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var currency_GetSupportedCurrencies_Args_pool codegen.Pool[currency_GetSupportedCurrencies_Args, *currency_GetSupportedCurrencies_Args]
var currency_GetSupportedCurrencies_Res_pool codegen.Pool[currency_GetSupportedCurrencies_Res, *currency_GetSupportedCurrencies_Res]

type currency_ClientStub struct {
	conn                    codegen.Conn
	mConvert                *codegen.MethodSpec
	mGetSupportedCurrencies *codegen.MethodSpec
}

var _ Currency = currency_ClientStub{}

func (s currency_ClientStub) Convert(ctx context.Context, a0 Money, a1 string) (Money, error) {
	args := currency_Convert_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := currency_Convert_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Currency", s.mConvert, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	currency_Convert_Args_pool.Put(args)
	currency_Convert_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s currency_ClientStub) GetSupportedCurrencies(ctx context.Context) ([]string, error) {
	args := currency_GetSupportedCurrencies_Args_pool.Get()
	res := currency_GetSupportedCurrencies_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Currency", s.mGetSupportedCurrencies, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	currency_GetSupportedCurrencies_Args_pool.Put(args)
	currency_GetSupportedCurrencies_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mCurrencyConvert := &codegen.MethodSpec{
		Name:    "Convert",
		NewArgs: func() codegen.Message { return new(currency_Convert_Args) },
		NewRes:  func() codegen.Message { return new(currency_Convert_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*currency_Convert_Args)
			r := res.(*currency_Convert_Res)
			_ = a
			var err error
			r.R0, err = impl.(Currency).Convert(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mCurrencyConvert.ArgsPool = &currency_Convert_Args_pool
	mCurrencyConvert.ResPool = &currency_Convert_Res_pool
	mCurrencyGetSupportedCurrencies := &codegen.MethodSpec{
		Name:    "GetSupportedCurrencies",
		NewArgs: func() codegen.Message { return new(currency_GetSupportedCurrencies_Args) },
		NewRes:  func() codegen.Message { return new(currency_GetSupportedCurrencies_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*currency_GetSupportedCurrencies_Args)
			r := res.(*currency_GetSupportedCurrencies_Res)
			_ = a
			var err error
			r.R0, err = impl.(Currency).GetSupportedCurrencies(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mCurrencyGetSupportedCurrencies.ArgsPool = &currency_GetSupportedCurrencies_Args_pool
	mCurrencyGetSupportedCurrencies.ResPool = &currency_GetSupportedCurrencies_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Currency",
		Iface:   reflect.TypeOf((*Currency)(nil)).Elem(),
		Impl:    reflect.TypeOf(currency{}),
		Methods: []*codegen.MethodSpec{mCurrencyConvert, mCurrencyGetSupportedCurrencies},
		ClientStub: func(conn codegen.Conn) any {
			return currency_ClientStub{conn: conn, mConvert: mCurrencyConvert, mGetSupportedCurrencies: mCurrencyGetSupportedCurrencies}
		},
	})
}

// Compile-time checks for component Email.
var _ weaver.InstanceOf[Email] = (*emailService)(nil)
var _ Email = (*emailService)(nil)

type email_SendOrderConfirmation_Args struct {
	P0 string
	P1 Order
}

// WeaverMarshal implements codec.Marshaler.
func (x *email_SendOrderConfirmation_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	weaverEnc_Order(e, &x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *email_SendOrderConfirmation_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	weaverDec_Order(d, &x.P1)
}

type email_SendOrderConfirmation_Res struct {
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *email_SendOrderConfirmation_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *email_SendOrderConfirmation_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var email_SendOrderConfirmation_Args_pool codegen.Pool[email_SendOrderConfirmation_Args, *email_SendOrderConfirmation_Args]
var email_SendOrderConfirmation_Res_pool codegen.Pool[email_SendOrderConfirmation_Res, *email_SendOrderConfirmation_Res]

type email_ClientStub struct {
	conn                   codegen.Conn
	mSendOrderConfirmation *codegen.MethodSpec
}

var _ Email = email_ClientStub{}

func (s email_ClientStub) SendOrderConfirmation(ctx context.Context, a0 string, a1 Order) error {
	args := email_SendOrderConfirmation_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := email_SendOrderConfirmation_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Email", s.mSendOrderConfirmation, args, res, 0, false)
	rerr := codegen.WireToError(res.Err, res.HasErr)
	email_SendOrderConfirmation_Args_pool.Put(args)
	email_SendOrderConfirmation_Res_pool.Put(res)
	if err != nil {
		return err
	}
	return rerr
}

func init() {
	mEmailSendOrderConfirmation := &codegen.MethodSpec{
		Name:    "SendOrderConfirmation",
		NewArgs: func() codegen.Message { return new(email_SendOrderConfirmation_Args) },
		NewRes:  func() codegen.Message { return new(email_SendOrderConfirmation_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*email_SendOrderConfirmation_Args)
			r := res.(*email_SendOrderConfirmation_Res)
			_ = a
			var err error
			err = impl.(Email).SendOrderConfirmation(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mEmailSendOrderConfirmation.ArgsPool = &email_SendOrderConfirmation_Args_pool
	mEmailSendOrderConfirmation.ResPool = &email_SendOrderConfirmation_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Email",
		Iface:   reflect.TypeOf((*Email)(nil)).Elem(),
		Impl:    reflect.TypeOf(emailService{}),
		Methods: []*codegen.MethodSpec{mEmailSendOrderConfirmation},
		ClientStub: func(conn codegen.Conn) any {
			return email_ClientStub{conn: conn, mSendOrderConfirmation: mEmailSendOrderConfirmation}
		},
	})
}

// Compile-time checks for component Frontend.
var _ weaver.InstanceOf[Frontend] = (*frontend)(nil)
var _ Frontend = (*frontend)(nil)

type frontend_AddToCart_Args struct {
	P0 string
	P1 string
	P2 int32
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_AddToCart_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.String(x.P1)
	e.Int32(x.P2)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_AddToCart_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.String()
	x.P2 = d.Int32()
}

type frontend_AddToCart_Res struct {
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_AddToCart_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_AddToCart_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var frontend_AddToCart_Args_pool codegen.Pool[frontend_AddToCart_Args, *frontend_AddToCart_Args]
var frontend_AddToCart_Res_pool codegen.Pool[frontend_AddToCart_Res, *frontend_AddToCart_Res]

type frontend_Checkout_Args struct {
	P0 PlaceOrderRequest
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_Checkout_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_PlaceOrderRequest(e, &x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_Checkout_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_PlaceOrderRequest(d, &x.P0)
}

type frontend_Checkout_Res struct {
	R0     Order
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_Checkout_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Order(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_Checkout_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Order(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var frontend_Checkout_Args_pool codegen.Pool[frontend_Checkout_Args, *frontend_Checkout_Args]
var frontend_Checkout_Res_pool codegen.Pool[frontend_Checkout_Res, *frontend_Checkout_Res]

type frontend_HTTPAddr_Args struct {
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_HTTPAddr_Args) WeaverMarshal(e *codec.Encoder) {
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_HTTPAddr_Args) WeaverUnmarshal(d *codec.Decoder) {
}

type frontend_HTTPAddr_Res struct {
	R0     string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_HTTPAddr_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_HTTPAddr_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var frontend_HTTPAddr_Args_pool codegen.Pool[frontend_HTTPAddr_Args, *frontend_HTTPAddr_Args]
var frontend_HTTPAddr_Res_pool codegen.Pool[frontend_HTTPAddr_Res, *frontend_HTTPAddr_Res]

type frontend_Home_Args struct {
	P0 string
	P1 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_Home_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.String(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_Home_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.String()
}

type frontend_Home_Res struct {
	R0     HomePage
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_Home_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_HomePage(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_Home_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_HomePage(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var frontend_Home_Args_pool codegen.Pool[frontend_Home_Args, *frontend_Home_Args]
var frontend_Home_Res_pool codegen.Pool[frontend_Home_Res, *frontend_Home_Res]

type frontend_Product_Args struct {
	P0 string
	P1 string
	P2 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_Product_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.String(x.P1)
	e.String(x.P2)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_Product_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.String()
	x.P2 = d.String()
}

type frontend_Product_Res struct {
	R0     ProductPage
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_Product_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_ProductPage(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_Product_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_ProductPage(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var frontend_Product_Args_pool codegen.Pool[frontend_Product_Args, *frontend_Product_Args]
var frontend_Product_Res_pool codegen.Pool[frontend_Product_Res, *frontend_Product_Res]

type frontend_ViewCart_Args struct {
	P0 string
	P1 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_ViewCart_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.String(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_ViewCart_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.String()
}

type frontend_ViewCart_Res struct {
	R0     CartPage
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *frontend_ViewCart_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_CartPage(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *frontend_ViewCart_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_CartPage(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var frontend_ViewCart_Args_pool codegen.Pool[frontend_ViewCart_Args, *frontend_ViewCart_Args]
var frontend_ViewCart_Res_pool codegen.Pool[frontend_ViewCart_Res, *frontend_ViewCart_Res]

type frontend_ClientStub struct {
	conn       codegen.Conn
	mAddToCart *codegen.MethodSpec
	mCheckout  *codegen.MethodSpec
	mHTTPAddr  *codegen.MethodSpec
	mHome      *codegen.MethodSpec
	mProduct   *codegen.MethodSpec
	mViewCart  *codegen.MethodSpec
}

var _ Frontend = frontend_ClientStub{}

func (s frontend_ClientStub) AddToCart(ctx context.Context, a0 string, a1 string, a2 int32) error {
	args := frontend_AddToCart_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	args.P2 = a2
	res := frontend_AddToCart_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Frontend", s.mAddToCart, args, res, 0, false)
	rerr := codegen.WireToError(res.Err, res.HasErr)
	frontend_AddToCart_Args_pool.Put(args)
	frontend_AddToCart_Res_pool.Put(res)
	if err != nil {
		return err
	}
	return rerr
}

func (s frontend_ClientStub) Checkout(ctx context.Context, a0 PlaceOrderRequest) (Order, error) {
	args := frontend_Checkout_Args_pool.Get()
	args.P0 = a0
	res := frontend_Checkout_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Frontend", s.mCheckout, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	frontend_Checkout_Args_pool.Put(args)
	frontend_Checkout_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s frontend_ClientStub) HTTPAddr(ctx context.Context) (string, error) {
	args := frontend_HTTPAddr_Args_pool.Get()
	res := frontend_HTTPAddr_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Frontend", s.mHTTPAddr, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	frontend_HTTPAddr_Args_pool.Put(args)
	frontend_HTTPAddr_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s frontend_ClientStub) Home(ctx context.Context, a0 string, a1 string) (HomePage, error) {
	args := frontend_Home_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := frontend_Home_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Frontend", s.mHome, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	frontend_Home_Args_pool.Put(args)
	frontend_Home_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s frontend_ClientStub) Product(ctx context.Context, a0 string, a1 string, a2 string) (ProductPage, error) {
	args := frontend_Product_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	args.P2 = a2
	res := frontend_Product_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Frontend", s.mProduct, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	frontend_Product_Args_pool.Put(args)
	frontend_Product_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s frontend_ClientStub) ViewCart(ctx context.Context, a0 string, a1 string) (CartPage, error) {
	args := frontend_ViewCart_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := frontend_ViewCart_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Frontend", s.mViewCart, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	frontend_ViewCart_Args_pool.Put(args)
	frontend_ViewCart_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mFrontendAddToCart := &codegen.MethodSpec{
		Name:    "AddToCart",
		NewArgs: func() codegen.Message { return new(frontend_AddToCart_Args) },
		NewRes:  func() codegen.Message { return new(frontend_AddToCart_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*frontend_AddToCart_Args)
			r := res.(*frontend_AddToCart_Res)
			_ = a
			var err error
			err = impl.(Frontend).AddToCart(ctx, a.P0, a.P1, a.P2)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFrontendAddToCart.ArgsPool = &frontend_AddToCart_Args_pool
	mFrontendAddToCart.ResPool = &frontend_AddToCart_Res_pool
	mFrontendCheckout := &codegen.MethodSpec{
		Name:    "Checkout",
		NewArgs: func() codegen.Message { return new(frontend_Checkout_Args) },
		NewRes:  func() codegen.Message { return new(frontend_Checkout_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*frontend_Checkout_Args)
			r := res.(*frontend_Checkout_Res)
			_ = a
			var err error
			r.R0, err = impl.(Frontend).Checkout(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFrontendCheckout.ArgsPool = &frontend_Checkout_Args_pool
	mFrontendCheckout.ResPool = &frontend_Checkout_Res_pool
	mFrontendHTTPAddr := &codegen.MethodSpec{
		Name:    "HTTPAddr",
		NewArgs: func() codegen.Message { return new(frontend_HTTPAddr_Args) },
		NewRes:  func() codegen.Message { return new(frontend_HTTPAddr_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*frontend_HTTPAddr_Args)
			r := res.(*frontend_HTTPAddr_Res)
			_ = a
			var err error
			r.R0, err = impl.(Frontend).HTTPAddr(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFrontendHTTPAddr.ArgsPool = &frontend_HTTPAddr_Args_pool
	mFrontendHTTPAddr.ResPool = &frontend_HTTPAddr_Res_pool
	mFrontendHome := &codegen.MethodSpec{
		Name:    "Home",
		NewArgs: func() codegen.Message { return new(frontend_Home_Args) },
		NewRes:  func() codegen.Message { return new(frontend_Home_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*frontend_Home_Args)
			r := res.(*frontend_Home_Res)
			_ = a
			var err error
			r.R0, err = impl.(Frontend).Home(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFrontendHome.ArgsPool = &frontend_Home_Args_pool
	mFrontendHome.ResPool = &frontend_Home_Res_pool
	mFrontendProduct := &codegen.MethodSpec{
		Name:    "Product",
		NewArgs: func() codegen.Message { return new(frontend_Product_Args) },
		NewRes:  func() codegen.Message { return new(frontend_Product_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*frontend_Product_Args)
			r := res.(*frontend_Product_Res)
			_ = a
			var err error
			r.R0, err = impl.(Frontend).Product(ctx, a.P0, a.P1, a.P2)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFrontendProduct.ArgsPool = &frontend_Product_Args_pool
	mFrontendProduct.ResPool = &frontend_Product_Res_pool
	mFrontendViewCart := &codegen.MethodSpec{
		Name:    "ViewCart",
		NewArgs: func() codegen.Message { return new(frontend_ViewCart_Args) },
		NewRes:  func() codegen.Message { return new(frontend_ViewCart_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*frontend_ViewCart_Args)
			r := res.(*frontend_ViewCart_Res)
			_ = a
			var err error
			r.R0, err = impl.(Frontend).ViewCart(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFrontendViewCart.ArgsPool = &frontend_ViewCart_Args_pool
	mFrontendViewCart.ResPool = &frontend_ViewCart_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Frontend",
		Iface:   reflect.TypeOf((*Frontend)(nil)).Elem(),
		Impl:    reflect.TypeOf(frontend{}),
		Methods: []*codegen.MethodSpec{mFrontendAddToCart, mFrontendCheckout, mFrontendHTTPAddr, mFrontendHome, mFrontendProduct, mFrontendViewCart},
		ClientStub: func(conn codegen.Conn) any {
			return frontend_ClientStub{conn: conn, mAddToCart: mFrontendAddToCart, mCheckout: mFrontendCheckout, mHTTPAddr: mFrontendHTTPAddr, mHome: mFrontendHome, mProduct: mFrontendProduct, mViewCart: mFrontendViewCart}
		},
	})
}

// Compile-time checks for component Payment.
var _ weaver.InstanceOf[Payment] = (*payment)(nil)
var _ Payment = (*payment)(nil)

type payment_Charge_Args struct {
	P0 Money
	P1 CreditCard
}

// WeaverMarshal implements codec.Marshaler.
func (x *payment_Charge_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Money(e, &x.P0)
	weaverEnc_CreditCard(e, &x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *payment_Charge_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Money(d, &x.P0)
	weaverDec_CreditCard(d, &x.P1)
}

type payment_Charge_Res struct {
	R0     string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *payment_Charge_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *payment_Charge_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var payment_Charge_Args_pool codegen.Pool[payment_Charge_Args, *payment_Charge_Args]
var payment_Charge_Res_pool codegen.Pool[payment_Charge_Res, *payment_Charge_Res]

type payment_ClientStub struct {
	conn    codegen.Conn
	mCharge *codegen.MethodSpec
}

var _ Payment = payment_ClientStub{}

func (s payment_ClientStub) Charge(ctx context.Context, a0 Money, a1 CreditCard) (string, error) {
	args := payment_Charge_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := payment_Charge_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Payment", s.mCharge, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	payment_Charge_Args_pool.Put(args)
	payment_Charge_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mPaymentCharge := &codegen.MethodSpec{
		Name:    "Charge",
		NewArgs: func() codegen.Message { return new(payment_Charge_Args) },
		NewRes:  func() codegen.Message { return new(payment_Charge_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*payment_Charge_Args)
			r := res.(*payment_Charge_Res)
			_ = a
			var err error
			r.R0, err = impl.(Payment).Charge(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		NoRetry: true,
	}
	mPaymentCharge.ArgsPool = &payment_Charge_Args_pool
	mPaymentCharge.ResPool = &payment_Charge_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Payment",
		Iface:   reflect.TypeOf((*Payment)(nil)).Elem(),
		Impl:    reflect.TypeOf(payment{}),
		Methods: []*codegen.MethodSpec{mPaymentCharge},
		ClientStub: func(conn codegen.Conn) any {
			return payment_ClientStub{conn: conn, mCharge: mPaymentCharge}
		},
	})
}

// Compile-time checks for component ProductCatalog.
var _ weaver.InstanceOf[ProductCatalog] = (*productCatalog)(nil)
var _ ProductCatalog = (*productCatalog)(nil)

type productCatalog_GetProduct_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *productCatalog_GetProduct_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *productCatalog_GetProduct_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type productCatalog_GetProduct_Res struct {
	R0     Product
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *productCatalog_GetProduct_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Product(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *productCatalog_GetProduct_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Product(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var productCatalog_GetProduct_Args_pool codegen.Pool[productCatalog_GetProduct_Args, *productCatalog_GetProduct_Args]
var productCatalog_GetProduct_Res_pool codegen.Pool[productCatalog_GetProduct_Res, *productCatalog_GetProduct_Res]

type productCatalog_ListProducts_Args struct {
}

// WeaverMarshal implements codec.Marshaler.
func (x *productCatalog_ListProducts_Args) WeaverMarshal(e *codec.Encoder) {
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *productCatalog_ListProducts_Args) WeaverUnmarshal(d *codec.Decoder) {
}

type productCatalog_ListProducts_Res struct {
	R0     []Product
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *productCatalog_ListProducts_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_Product(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *productCatalog_ListProducts_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_Product(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var productCatalog_ListProducts_Args_pool codegen.Pool[productCatalog_ListProducts_Args, *productCatalog_ListProducts_Args]
var productCatalog_ListProducts_Res_pool codegen.Pool[productCatalog_ListProducts_Res, *productCatalog_ListProducts_Res]

type productCatalog_SearchProducts_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *productCatalog_SearchProducts_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *productCatalog_SearchProducts_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type productCatalog_SearchProducts_Res struct {
	R0     []Product
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *productCatalog_SearchProducts_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_Product(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *productCatalog_SearchProducts_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_Product(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var productCatalog_SearchProducts_Args_pool codegen.Pool[productCatalog_SearchProducts_Args, *productCatalog_SearchProducts_Args]
var productCatalog_SearchProducts_Res_pool codegen.Pool[productCatalog_SearchProducts_Res, *productCatalog_SearchProducts_Res]

type productCatalog_ClientStub struct {
	conn            codegen.Conn
	mGetProduct     *codegen.MethodSpec
	mListProducts   *codegen.MethodSpec
	mSearchProducts *codegen.MethodSpec
}

var _ ProductCatalog = productCatalog_ClientStub{}

func (s productCatalog_ClientStub) GetProduct(ctx context.Context, a0 string) (Product, error) {
	args := productCatalog_GetProduct_Args_pool.Get()
	args.P0 = a0
	res := productCatalog_GetProduct_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/ProductCatalog", s.mGetProduct, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	productCatalog_GetProduct_Args_pool.Put(args)
	productCatalog_GetProduct_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s productCatalog_ClientStub) ListProducts(ctx context.Context) ([]Product, error) {
	args := productCatalog_ListProducts_Args_pool.Get()
	res := productCatalog_ListProducts_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/ProductCatalog", s.mListProducts, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	productCatalog_ListProducts_Args_pool.Put(args)
	productCatalog_ListProducts_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s productCatalog_ClientStub) SearchProducts(ctx context.Context, a0 string) ([]Product, error) {
	args := productCatalog_SearchProducts_Args_pool.Get()
	args.P0 = a0
	res := productCatalog_SearchProducts_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/ProductCatalog", s.mSearchProducts, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	productCatalog_SearchProducts_Args_pool.Put(args)
	productCatalog_SearchProducts_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mProductCatalogGetProduct := &codegen.MethodSpec{
		Name:    "GetProduct",
		NewArgs: func() codegen.Message { return new(productCatalog_GetProduct_Args) },
		NewRes:  func() codegen.Message { return new(productCatalog_GetProduct_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*productCatalog_GetProduct_Args)
			r := res.(*productCatalog_GetProduct_Res)
			_ = a
			var err error
			r.R0, err = impl.(ProductCatalog).GetProduct(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mProductCatalogGetProduct.ArgsPool = &productCatalog_GetProduct_Args_pool
	mProductCatalogGetProduct.ResPool = &productCatalog_GetProduct_Res_pool
	mProductCatalogListProducts := &codegen.MethodSpec{
		Name:    "ListProducts",
		NewArgs: func() codegen.Message { return new(productCatalog_ListProducts_Args) },
		NewRes:  func() codegen.Message { return new(productCatalog_ListProducts_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*productCatalog_ListProducts_Args)
			r := res.(*productCatalog_ListProducts_Res)
			_ = a
			var err error
			r.R0, err = impl.(ProductCatalog).ListProducts(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mProductCatalogListProducts.ArgsPool = &productCatalog_ListProducts_Args_pool
	mProductCatalogListProducts.ResPool = &productCatalog_ListProducts_Res_pool
	mProductCatalogSearchProducts := &codegen.MethodSpec{
		Name:    "SearchProducts",
		NewArgs: func() codegen.Message { return new(productCatalog_SearchProducts_Args) },
		NewRes:  func() codegen.Message { return new(productCatalog_SearchProducts_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*productCatalog_SearchProducts_Args)
			r := res.(*productCatalog_SearchProducts_Res)
			_ = a
			var err error
			r.R0, err = impl.(ProductCatalog).SearchProducts(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mProductCatalogSearchProducts.ArgsPool = &productCatalog_SearchProducts_Args_pool
	mProductCatalogSearchProducts.ResPool = &productCatalog_SearchProducts_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/ProductCatalog",
		Iface:   reflect.TypeOf((*ProductCatalog)(nil)).Elem(),
		Impl:    reflect.TypeOf(productCatalog{}),
		Methods: []*codegen.MethodSpec{mProductCatalogGetProduct, mProductCatalogListProducts, mProductCatalogSearchProducts},
		ClientStub: func(conn codegen.Conn) any {
			return productCatalog_ClientStub{conn: conn, mGetProduct: mProductCatalogGetProduct, mListProducts: mProductCatalogListProducts, mSearchProducts: mProductCatalogSearchProducts}
		},
	})
}

// Compile-time checks for component Recommendation.
var _ weaver.InstanceOf[Recommendation] = (*recommendation)(nil)
var _ Recommendation = (*recommendation)(nil)

type recommendation_ListRecommendations_Args struct {
	P0 string
	P1 []string
}

// WeaverMarshal implements codec.Marshaler.
func (x *recommendation_ListRecommendations_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	weaverEnc_slice_string(e, &x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *recommendation_ListRecommendations_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	weaverDec_slice_string(d, &x.P1)
}

type recommendation_ListRecommendations_Res struct {
	R0     []string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *recommendation_ListRecommendations_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_slice_string(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *recommendation_ListRecommendations_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_slice_string(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var recommendation_ListRecommendations_Args_pool codegen.Pool[recommendation_ListRecommendations_Args, *recommendation_ListRecommendations_Args]
var recommendation_ListRecommendations_Res_pool codegen.Pool[recommendation_ListRecommendations_Res, *recommendation_ListRecommendations_Res]

type recommendation_ClientStub struct {
	conn                 codegen.Conn
	mListRecommendations *codegen.MethodSpec
}

var _ Recommendation = recommendation_ClientStub{}

func (s recommendation_ClientStub) ListRecommendations(ctx context.Context, a0 string, a1 []string) ([]string, error) {
	args := recommendation_ListRecommendations_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := recommendation_ListRecommendations_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Recommendation", s.mListRecommendations, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	recommendation_ListRecommendations_Args_pool.Put(args)
	recommendation_ListRecommendations_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mRecommendationListRecommendations := &codegen.MethodSpec{
		Name:    "ListRecommendations",
		NewArgs: func() codegen.Message { return new(recommendation_ListRecommendations_Args) },
		NewRes:  func() codegen.Message { return new(recommendation_ListRecommendations_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*recommendation_ListRecommendations_Args)
			r := res.(*recommendation_ListRecommendations_Res)
			_ = a
			var err error
			r.R0, err = impl.(Recommendation).ListRecommendations(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mRecommendationListRecommendations.ArgsPool = &recommendation_ListRecommendations_Args_pool
	mRecommendationListRecommendations.ResPool = &recommendation_ListRecommendations_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Recommendation",
		Iface:   reflect.TypeOf((*Recommendation)(nil)).Elem(),
		Impl:    reflect.TypeOf(recommendation{}),
		Methods: []*codegen.MethodSpec{mRecommendationListRecommendations},
		ClientStub: func(conn codegen.Conn) any {
			return recommendation_ClientStub{conn: conn, mListRecommendations: mRecommendationListRecommendations}
		},
	})
}

// Compile-time checks for component Shipping.
var _ weaver.InstanceOf[Shipping] = (*shipping)(nil)
var _ Shipping = (*shipping)(nil)

type shipping_GetQuote_Args struct {
	P0 Address
	P1 []CartItem
}

// WeaverMarshal implements codec.Marshaler.
func (x *shipping_GetQuote_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Address(e, &x.P0)
	weaverEnc_slice_CartItem(e, &x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *shipping_GetQuote_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Address(d, &x.P0)
	weaverDec_slice_CartItem(d, &x.P1)
}

type shipping_GetQuote_Res struct {
	R0     Money
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *shipping_GetQuote_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Money(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *shipping_GetQuote_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Money(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var shipping_GetQuote_Args_pool codegen.Pool[shipping_GetQuote_Args, *shipping_GetQuote_Args]
var shipping_GetQuote_Res_pool codegen.Pool[shipping_GetQuote_Res, *shipping_GetQuote_Res]

type shipping_ShipOrder_Args struct {
	P0 Address
	P1 []CartItem
}

// WeaverMarshal implements codec.Marshaler.
func (x *shipping_ShipOrder_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Address(e, &x.P0)
	weaverEnc_slice_CartItem(e, &x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *shipping_ShipOrder_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Address(d, &x.P0)
	weaverDec_slice_CartItem(d, &x.P1)
}

type shipping_ShipOrder_Res struct {
	R0     string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *shipping_ShipOrder_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *shipping_ShipOrder_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var shipping_ShipOrder_Args_pool codegen.Pool[shipping_ShipOrder_Args, *shipping_ShipOrder_Args]
var shipping_ShipOrder_Res_pool codegen.Pool[shipping_ShipOrder_Res, *shipping_ShipOrder_Res]

type shipping_ClientStub struct {
	conn       codegen.Conn
	mGetQuote  *codegen.MethodSpec
	mShipOrder *codegen.MethodSpec
}

var _ Shipping = shipping_ClientStub{}

func (s shipping_ClientStub) GetQuote(ctx context.Context, a0 Address, a1 []CartItem) (Money, error) {
	args := shipping_GetQuote_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := shipping_GetQuote_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Shipping", s.mGetQuote, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	shipping_GetQuote_Args_pool.Put(args)
	shipping_GetQuote_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s shipping_ClientStub) ShipOrder(ctx context.Context, a0 Address, a1 []CartItem) (string, error) {
	args := shipping_ShipOrder_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := shipping_ShipOrder_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/boutique/Shipping", s.mShipOrder, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	shipping_ShipOrder_Args_pool.Put(args)
	shipping_ShipOrder_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mShippingGetQuote := &codegen.MethodSpec{
		Name:    "GetQuote",
		NewArgs: func() codegen.Message { return new(shipping_GetQuote_Args) },
		NewRes:  func() codegen.Message { return new(shipping_GetQuote_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*shipping_GetQuote_Args)
			r := res.(*shipping_GetQuote_Res)
			_ = a
			var err error
			r.R0, err = impl.(Shipping).GetQuote(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mShippingGetQuote.ArgsPool = &shipping_GetQuote_Args_pool
	mShippingGetQuote.ResPool = &shipping_GetQuote_Res_pool
	mShippingShipOrder := &codegen.MethodSpec{
		Name:    "ShipOrder",
		NewArgs: func() codegen.Message { return new(shipping_ShipOrder_Args) },
		NewRes:  func() codegen.Message { return new(shipping_ShipOrder_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*shipping_ShipOrder_Args)
			r := res.(*shipping_ShipOrder_Res)
			_ = a
			var err error
			r.R0, err = impl.(Shipping).ShipOrder(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		NoRetry: true,
	}
	mShippingShipOrder.ArgsPool = &shipping_ShipOrder_Args_pool
	mShippingShipOrder.ResPool = &shipping_ShipOrder_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/boutique/Shipping",
		Iface:   reflect.TypeOf((*Shipping)(nil)).Elem(),
		Impl:    reflect.TypeOf(shipping{}),
		Methods: []*codegen.MethodSpec{mShippingGetQuote, mShippingShipOrder},
		ClientStub: func(conn codegen.Conn) any {
			return shipping_ClientStub{conn: conn, mGetQuote: mShippingGetQuote, mShipOrder: mShippingShipOrder}
		},
	})
}

// Encoders and decoders for the types reachable from component methods.

func weaverEnc_slice_string(e *codec.Encoder, x *[]string) {
	e.Len64(len(*x))
	for i := range *x {
		e.String((*x)[i])
	}
}

func weaverDec_slice_string(d *codec.Decoder, x *[]string) {
	s := make([]string, d.Len64("slice"))
	for i := range s {
		s[i] = d.String()
	}
	*x = s
}

func weaverEnc_slice_Ad(e *codec.Encoder, x *[]Ad) {
	e.Len64(len(*x))
	for i := range *x {
		weaverEnc_Ad(e, &(*x)[i])
	}
}

func weaverDec_slice_Ad(d *codec.Decoder, x *[]Ad) {
	s := make([]Ad, d.Len64("slice"))
	for i := range s {
		weaverDec_Ad(d, &s[i])
	}
	*x = s
}

func weaverEnc_CartItem(e *codec.Encoder, x *CartItem) {
	e.String(x.ProductID)
	e.Int32(x.Quantity)
}

func weaverDec_CartItem(d *codec.Decoder, x *CartItem) {
	x.ProductID = d.String()
	x.Quantity = d.Int32()
}

func weaverEnc_slice_CartItem(e *codec.Encoder, x *[]CartItem) {
	e.Len64(len(*x))
	for i := range *x {
		weaverEnc_CartItem(e, &(*x)[i])
	}
}

func weaverDec_slice_CartItem(d *codec.Decoder, x *[]CartItem) {
	s := make([]CartItem, d.Len64("slice"))
	for i := range s {
		weaverDec_CartItem(d, &s[i])
	}
	*x = s
}

func weaverEnc_PlaceOrderRequest(e *codec.Encoder, x *PlaceOrderRequest) {
	e.String(x.UserID)
	e.String(x.UserCurrency)
	weaverEnc_Address(e, &x.Address)
	e.String(x.Email)
	weaverEnc_CreditCard(e, &x.CreditCard)
}

func weaverDec_PlaceOrderRequest(d *codec.Decoder, x *PlaceOrderRequest) {
	x.UserID = d.String()
	x.UserCurrency = d.String()
	weaverDec_Address(d, &x.Address)
	x.Email = d.String()
	weaverDec_CreditCard(d, &x.CreditCard)
}

func weaverEnc_Order(e *codec.Encoder, x *Order) {
	e.String(x.OrderID)
	e.String(x.ShippingTrackingID)
	weaverEnc_Money(e, &x.ShippingCost)
	weaverEnc_Address(e, &x.ShippingAddress)
	weaverEnc_slice_OrderItem(e, &x.Items)
	weaverEnc_Money(e, &x.Total)
}

func weaverDec_Order(d *codec.Decoder, x *Order) {
	x.OrderID = d.String()
	x.ShippingTrackingID = d.String()
	weaverDec_Money(d, &x.ShippingCost)
	weaverDec_Address(d, &x.ShippingAddress)
	weaverDec_slice_OrderItem(d, &x.Items)
	weaverDec_Money(d, &x.Total)
}

func weaverEnc_Money(e *codec.Encoder, x *Money) {
	e.String(x.CurrencyCode)
	e.Int64(x.Units)
	e.Int32(x.Nanos)
}

func weaverDec_Money(d *codec.Decoder, x *Money) {
	x.CurrencyCode = d.String()
	x.Units = d.Int64()
	x.Nanos = d.Int32()
}

func weaverEnc_HomePage(e *codec.Encoder, x *HomePage) {
	weaverEnc_slice_Product(e, &x.Products)
	weaverEnc_slice_string(e, &x.Currencies)
	weaverEnc_Ad(e, &x.Ad)
}

func weaverDec_HomePage(d *codec.Decoder, x *HomePage) {
	weaverDec_slice_Product(d, &x.Products)
	weaverDec_slice_string(d, &x.Currencies)
	weaverDec_Ad(d, &x.Ad)
}

func weaverEnc_ProductPage(e *codec.Encoder, x *ProductPage) {
	weaverEnc_Product(e, &x.Product)
	weaverEnc_Money(e, &x.Price)
	weaverEnc_slice_string(e, &x.Recommendations)
	weaverEnc_Ad(e, &x.Ad)
}

func weaverDec_ProductPage(d *codec.Decoder, x *ProductPage) {
	weaverDec_Product(d, &x.Product)
	weaverDec_Money(d, &x.Price)
	weaverDec_slice_string(d, &x.Recommendations)
	weaverDec_Ad(d, &x.Ad)
}

func weaverEnc_CartPage(e *codec.Encoder, x *CartPage) {
	weaverEnc_slice_OrderItem(e, &x.Items)
	weaverEnc_Money(e, &x.ShippingCost)
	weaverEnc_Money(e, &x.Total)
}

func weaverDec_CartPage(d *codec.Decoder, x *CartPage) {
	weaverDec_slice_OrderItem(d, &x.Items)
	weaverDec_Money(d, &x.ShippingCost)
	weaverDec_Money(d, &x.Total)
}

func weaverEnc_CreditCard(e *codec.Encoder, x *CreditCard) {
	e.String(x.Number)
	e.Int32(x.CVV)
	e.Int32(x.ExpirationYear)
	e.Int32(x.ExpirationMonth)
}

func weaverDec_CreditCard(d *codec.Decoder, x *CreditCard) {
	x.Number = d.String()
	x.CVV = d.Int32()
	x.ExpirationYear = d.Int32()
	x.ExpirationMonth = d.Int32()
}

func weaverEnc_Product(e *codec.Encoder, x *Product) {
	e.String(x.ID)
	e.String(x.Name)
	e.String(x.Description)
	e.String(x.Picture)
	weaverEnc_Money(e, &x.Price)
	weaverEnc_slice_string(e, &x.Categories)
}

func weaverDec_Product(d *codec.Decoder, x *Product) {
	x.ID = d.String()
	x.Name = d.String()
	x.Description = d.String()
	x.Picture = d.String()
	weaverDec_Money(d, &x.Price)
	weaverDec_slice_string(d, &x.Categories)
}

func weaverEnc_slice_Product(e *codec.Encoder, x *[]Product) {
	e.Len64(len(*x))
	for i := range *x {
		weaverEnc_Product(e, &(*x)[i])
	}
}

func weaverDec_slice_Product(d *codec.Decoder, x *[]Product) {
	s := make([]Product, d.Len64("slice"))
	for i := range s {
		weaverDec_Product(d, &s[i])
	}
	*x = s
}

func weaverEnc_Address(e *codec.Encoder, x *Address) {
	e.String(x.StreetAddress)
	e.String(x.City)
	e.String(x.State)
	e.String(x.Country)
	e.Int32(x.ZipCode)
}

func weaverDec_Address(d *codec.Decoder, x *Address) {
	x.StreetAddress = d.String()
	x.City = d.String()
	x.State = d.String()
	x.Country = d.String()
	x.ZipCode = d.Int32()
}

func weaverEnc_Ad(e *codec.Encoder, x *Ad) {
	e.String(x.RedirectURL)
	e.String(x.Text)
}

func weaverDec_Ad(d *codec.Decoder, x *Ad) {
	x.RedirectURL = d.String()
	x.Text = d.String()
}

func weaverEnc_slice_OrderItem(e *codec.Encoder, x *[]OrderItem) {
	e.Len64(len(*x))
	for i := range *x {
		weaverEnc_OrderItem(e, &(*x)[i])
	}
}

func weaverDec_slice_OrderItem(d *codec.Decoder, x *[]OrderItem) {
	s := make([]OrderItem, d.Len64("slice"))
	for i := range s {
		weaverDec_OrderItem(d, &s[i])
	}
	*x = s
}

func weaverEnc_OrderItem(e *codec.Encoder, x *OrderItem) {
	weaverEnc_CartItem(e, &x.Item)
	weaverEnc_Money(e, &x.Cost)
}

func weaverDec_OrderItem(d *codec.Decoder, x *OrderItem) {
	weaverDec_CartItem(d, &x.Item)
	weaverDec_Money(d, &x.Cost)
}
