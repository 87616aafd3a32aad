// Code generated by weavergen. DO NOT EDIT.

package testpkg

import (
	"context"
	"reflect"
	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/routing"
	"repro/weaver"
	"slices"
	"time"
)

// Compile-time checks for component Backref.
var _ weaver.InstanceOf[Backref] = (*backrefImpl)(nil)
var _ Backref = (*backrefImpl)(nil)

type backref_Poke_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *backref_Poke_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *backref_Poke_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type backref_Poke_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *backref_Poke_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *backref_Poke_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var backref_Poke_Args_pool codegen.Pool[backref_Poke_Args, *backref_Poke_Args]
var backref_Poke_Res_pool codegen.Pool[backref_Poke_Res, *backref_Poke_Res]

type backref_ClientStub struct {
	conn  codegen.Conn
	mPoke *codegen.MethodSpec
}

var _ Backref = backref_ClientStub{}

func (s backref_ClientStub) Poke(ctx context.Context, a0 string) (int64, error) {
	args := backref_Poke_Args_pool.Get()
	args.P0 = a0
	res := backref_Poke_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Backref", s.mPoke, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	backref_Poke_Args_pool.Put(args)
	backref_Poke_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mBackrefPoke := &codegen.MethodSpec{
		Name:    "Poke",
		NewArgs: func() codegen.Message { return new(backref_Poke_Args) },
		NewRes:  func() codegen.Message { return new(backref_Poke_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*backref_Poke_Args)
			r := res.(*backref_Poke_Res)
			_ = a
			var err error
			r.R0, err = impl.(Backref).Poke(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mBackrefPoke.ArgsPool = &backref_Poke_Args_pool
	mBackrefPoke.ResPool = &backref_Poke_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Backref",
		Iface:   reflect.TypeOf((*Backref)(nil)).Elem(),
		Impl:    reflect.TypeOf(backrefImpl{}),
		Methods: []*codegen.MethodSpec{mBackrefPoke},
		ClientStub: func(conn codegen.Conn) any {
			return backref_ClientStub{conn: conn, mPoke: mBackrefPoke}
		},
	})
}

// Compile-time checks for component Chain.
var _ weaver.InstanceOf[Chain] = (*chainImpl)(nil)
var _ Chain = (*chainImpl)(nil)

type chain_Relay_Args struct {
	P0 string
	P1 int
}

// WeaverMarshal implements codec.Marshaler.
func (x *chain_Relay_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.Int(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *chain_Relay_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.Int()
}

type chain_Relay_Res struct {
	R0     string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *chain_Relay_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *chain_Relay_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var chain_Relay_Args_pool codegen.Pool[chain_Relay_Args, *chain_Relay_Args]
var chain_Relay_Res_pool codegen.Pool[chain_Relay_Res, *chain_Relay_Res]

type chain_ClientStub struct {
	conn   codegen.Conn
	mRelay *codegen.MethodSpec
}

var _ Chain = chain_ClientStub{}

func (s chain_ClientStub) Relay(ctx context.Context, a0 string, a1 int) (string, error) {
	args := chain_Relay_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := chain_Relay_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Chain", s.mRelay, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	chain_Relay_Args_pool.Put(args)
	chain_Relay_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mChainRelay := &codegen.MethodSpec{
		Name:    "Relay",
		NewArgs: func() codegen.Message { return new(chain_Relay_Args) },
		NewRes:  func() codegen.Message { return new(chain_Relay_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*chain_Relay_Args)
			r := res.(*chain_Relay_Res)
			_ = a
			var err error
			r.R0, err = impl.(Chain).Relay(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mChainRelay.ArgsPool = &chain_Relay_Args_pool
	mChainRelay.ResPool = &chain_Relay_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Chain",
		Iface:   reflect.TypeOf((*Chain)(nil)).Elem(),
		Impl:    reflect.TypeOf(chainImpl{}),
		Methods: []*codegen.MethodSpec{mChainRelay},
		ClientStub: func(conn codegen.Conn) any {
			return chain_ClientStub{conn: conn, mRelay: mChainRelay}
		},
	})
}

// Compile-time checks for component Counter.
var _ weaver.InstanceOf[Counter] = (*counterImpl)(nil)
var _ Counter = (*counterImpl)(nil)

type counter_Add_Args struct {
	P0 string
	P1 int64
}

// WeaverMarshal implements codec.Marshaler.
func (x *counter_Add_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.Int64(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *counter_Add_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.Int64()
}

type counter_Add_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *counter_Add_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *counter_Add_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var counter_Add_Args_pool codegen.Pool[counter_Add_Args, *counter_Add_Args]
var counter_Add_Res_pool codegen.Pool[counter_Add_Res, *counter_Add_Res]

type counter_Value_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *counter_Value_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *counter_Value_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type counter_Value_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *counter_Value_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *counter_Value_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var counter_Value_Args_pool codegen.Pool[counter_Value_Args, *counter_Value_Args]
var counter_Value_Res_pool codegen.Pool[counter_Value_Res, *counter_Value_Res]

type counter_ClientStub struct {
	conn   codegen.Conn
	mAdd   *codegen.MethodSpec
	mValue *codegen.MethodSpec
}

var _ Counter = counter_ClientStub{}

func (s counter_ClientStub) Add(ctx context.Context, a0 string, a1 int64) (int64, error) {
	args := counter_Add_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := counter_Add_Res_pool.Get()
	var router counterRouter
	shard := routing.KeyHash(router.Add(a0, a1))
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Counter", s.mAdd, args, res, shard, true)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	counter_Add_Args_pool.Put(args)
	counter_Add_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s counter_ClientStub) Value(ctx context.Context, a0 string) (int64, error) {
	args := counter_Value_Args_pool.Get()
	args.P0 = a0
	res := counter_Value_Res_pool.Get()
	var router counterRouter
	shard := routing.KeyHash(router.Value(a0))
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Counter", s.mValue, args, res, shard, true)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	counter_Value_Args_pool.Put(args)
	counter_Value_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mCounterAdd := &codegen.MethodSpec{
		Name:    "Add",
		NewArgs: func() codegen.Message { return new(counter_Add_Args) },
		NewRes:  func() codegen.Message { return new(counter_Add_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*counter_Add_Args)
			r := res.(*counter_Add_Res)
			_ = a
			var err error
			r.R0, err = impl.(Counter).Add(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Shard: func(args any) uint64 {
			a := args.(*counter_Add_Args)
			_ = a
			var router counterRouter
			return routing.KeyHash(router.Add(a.P0, a.P1))
		},
	}
	mCounterAdd.ArgsPool = &counter_Add_Args_pool
	mCounterAdd.ResPool = &counter_Add_Res_pool
	mCounterValue := &codegen.MethodSpec{
		Name:    "Value",
		NewArgs: func() codegen.Message { return new(counter_Value_Args) },
		NewRes:  func() codegen.Message { return new(counter_Value_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*counter_Value_Args)
			r := res.(*counter_Value_Res)
			_ = a
			var err error
			r.R0, err = impl.(Counter).Value(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Shard: func(args any) uint64 {
			a := args.(*counter_Value_Args)
			_ = a
			var router counterRouter
			return routing.KeyHash(router.Value(a.P0))
		},
	}
	mCounterValue.ArgsPool = &counter_Value_Args_pool
	mCounterValue.ResPool = &counter_Value_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Counter",
		Iface:   reflect.TypeOf((*Counter)(nil)).Elem(),
		Impl:    reflect.TypeOf(counterImpl{}),
		Routed:  true,
		Methods: []*codegen.MethodSpec{mCounterAdd, mCounterValue},
		ClientStub: func(conn codegen.Conn) any {
			return counter_ClientStub{conn: conn, mAdd: mCounterAdd, mValue: mCounterValue}
		},
	})
}

// Compile-time checks for component Echo.
var _ weaver.InstanceOf[Echo] = (*echoImpl)(nil)
var _ Echo = (*echoImpl)(nil)

type echo_Echo_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *echo_Echo_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *echo_Echo_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type echo_Echo_Res struct {
	R0     string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *echo_Echo_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *echo_Echo_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var echo_Echo_Args_pool codegen.Pool[echo_Echo_Args, *echo_Echo_Args]
var echo_Echo_Res_pool codegen.Pool[echo_Echo_Res, *echo_Echo_Res]

type echo_Mirror_Args struct {
	P0 Kinds
}

// WeaverMarshal implements codec.Marshaler.
func (x *echo_Mirror_Args) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Kinds(e, &x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *echo_Mirror_Args) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Kinds(d, &x.P0)
}

type echo_Mirror_Res struct {
	R0     Kinds
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *echo_Mirror_Res) WeaverMarshal(e *codec.Encoder) {
	weaverEnc_Kinds(e, &x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *echo_Mirror_Res) WeaverUnmarshal(d *codec.Decoder) {
	weaverDec_Kinds(d, &x.R0)
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var echo_Mirror_Args_pool codegen.Pool[echo_Mirror_Args, *echo_Mirror_Args]
var echo_Mirror_Res_pool codegen.Pool[echo_Mirror_Res, *echo_Mirror_Res]

type echo_WhoAmI_Args struct {
}

// WeaverMarshal implements codec.Marshaler.
func (x *echo_WhoAmI_Args) WeaverMarshal(e *codec.Encoder) {
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *echo_WhoAmI_Args) WeaverUnmarshal(d *codec.Decoder) {
}

type echo_WhoAmI_Res struct {
	R0     int
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *echo_WhoAmI_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *echo_WhoAmI_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var echo_WhoAmI_Args_pool codegen.Pool[echo_WhoAmI_Args, *echo_WhoAmI_Args]
var echo_WhoAmI_Res_pool codegen.Pool[echo_WhoAmI_Res, *echo_WhoAmI_Res]

type echo_ClientStub struct {
	conn    codegen.Conn
	mEcho   *codegen.MethodSpec
	mMirror *codegen.MethodSpec
	mWhoAmI *codegen.MethodSpec
}

var _ Echo = echo_ClientStub{}

func (s echo_ClientStub) Echo(ctx context.Context, a0 string) (string, error) {
	args := echo_Echo_Args_pool.Get()
	args.P0 = a0
	res := echo_Echo_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Echo", s.mEcho, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	echo_Echo_Args_pool.Put(args)
	echo_Echo_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s echo_ClientStub) Mirror(ctx context.Context, a0 Kinds) (Kinds, error) {
	args := echo_Mirror_Args_pool.Get()
	args.P0 = a0
	res := echo_Mirror_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Echo", s.mMirror, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	echo_Mirror_Args_pool.Put(args)
	echo_Mirror_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s echo_ClientStub) WhoAmI(ctx context.Context) (int, error) {
	args := echo_WhoAmI_Args_pool.Get()
	res := echo_WhoAmI_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Echo", s.mWhoAmI, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	echo_WhoAmI_Args_pool.Put(args)
	echo_WhoAmI_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mEchoEcho := &codegen.MethodSpec{
		Name:    "Echo",
		NewArgs: func() codegen.Message { return new(echo_Echo_Args) },
		NewRes:  func() codegen.Message { return new(echo_Echo_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*echo_Echo_Args)
			r := res.(*echo_Echo_Res)
			_ = a
			var err error
			r.R0, err = impl.(Echo).Echo(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mEchoEcho.ArgsPool = &echo_Echo_Args_pool
	mEchoEcho.ResPool = &echo_Echo_Res_pool
	mEchoMirror := &codegen.MethodSpec{
		Name:    "Mirror",
		NewArgs: func() codegen.Message { return new(echo_Mirror_Args) },
		NewRes:  func() codegen.Message { return new(echo_Mirror_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*echo_Mirror_Args)
			r := res.(*echo_Mirror_Res)
			_ = a
			var err error
			r.R0, err = impl.(Echo).Mirror(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mEchoMirror.ArgsPool = &echo_Mirror_Args_pool
	mEchoMirror.ResPool = &echo_Mirror_Res_pool
	mEchoWhoAmI := &codegen.MethodSpec{
		Name:    "WhoAmI",
		NewArgs: func() codegen.Message { return new(echo_WhoAmI_Args) },
		NewRes:  func() codegen.Message { return new(echo_WhoAmI_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*echo_WhoAmI_Args)
			r := res.(*echo_WhoAmI_Res)
			_ = a
			var err error
			r.R0, err = impl.(Echo).WhoAmI(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mEchoWhoAmI.ArgsPool = &echo_WhoAmI_Args_pool
	mEchoWhoAmI.ResPool = &echo_WhoAmI_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Echo",
		Iface:   reflect.TypeOf((*Echo)(nil)).Elem(),
		Impl:    reflect.TypeOf(echoImpl{}),
		Methods: []*codegen.MethodSpec{mEchoEcho, mEchoMirror, mEchoWhoAmI},
		ClientStub: func(conn codegen.Conn) any {
			return echo_ClientStub{conn: conn, mEcho: mEchoEcho, mMirror: mEchoMirror, mWhoAmI: mEchoWhoAmI}
		},
	})
}

// Compile-time checks for component Failer.
var _ weaver.InstanceOf[Failer] = (*failerImpl)(nil)
var _ Failer = (*failerImpl)(nil)

type failer_Crashy_Args struct {
}

// WeaverMarshal implements codec.Marshaler.
func (x *failer_Crashy_Args) WeaverMarshal(e *codec.Encoder) {
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *failer_Crashy_Args) WeaverUnmarshal(d *codec.Decoder) {
}

type failer_Crashy_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *failer_Crashy_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *failer_Crashy_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var failer_Crashy_Args_pool codegen.Pool[failer_Crashy_Args, *failer_Crashy_Args]
var failer_Crashy_Res_pool codegen.Pool[failer_Crashy_Res, *failer_Crashy_Res]

type failer_Maybe_Args struct {
	P0 bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *failer_Maybe_Args) WeaverMarshal(e *codec.Encoder) {
	e.Bool(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *failer_Maybe_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.Bool()
}

type failer_Maybe_Res struct {
	R0     string
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *failer_Maybe_Res) WeaverMarshal(e *codec.Encoder) {
	e.String(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *failer_Maybe_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.String()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var failer_Maybe_Args_pool codegen.Pool[failer_Maybe_Args, *failer_Maybe_Args]
var failer_Maybe_Res_pool codegen.Pool[failer_Maybe_Res, *failer_Maybe_Res]

type failer_ClientStub struct {
	conn    codegen.Conn
	mCrashy *codegen.MethodSpec
	mMaybe  *codegen.MethodSpec
}

var _ Failer = failer_ClientStub{}

func (s failer_ClientStub) Crashy(ctx context.Context) (int64, error) {
	args := failer_Crashy_Args_pool.Get()
	res := failer_Crashy_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Failer", s.mCrashy, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	failer_Crashy_Args_pool.Put(args)
	failer_Crashy_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s failer_ClientStub) Maybe(ctx context.Context, a0 bool) (string, error) {
	args := failer_Maybe_Args_pool.Get()
	args.P0 = a0
	res := failer_Maybe_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Failer", s.mMaybe, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	failer_Maybe_Args_pool.Put(args)
	failer_Maybe_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mFailerCrashy := &codegen.MethodSpec{
		Name:    "Crashy",
		NewArgs: func() codegen.Message { return new(failer_Crashy_Args) },
		NewRes:  func() codegen.Message { return new(failer_Crashy_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*failer_Crashy_Args)
			r := res.(*failer_Crashy_Res)
			_ = a
			var err error
			r.R0, err = impl.(Failer).Crashy(ctx)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFailerCrashy.ArgsPool = &failer_Crashy_Args_pool
	mFailerCrashy.ResPool = &failer_Crashy_Res_pool
	mFailerMaybe := &codegen.MethodSpec{
		Name:    "Maybe",
		NewArgs: func() codegen.Message { return new(failer_Maybe_Args) },
		NewRes:  func() codegen.Message { return new(failer_Maybe_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*failer_Maybe_Args)
			r := res.(*failer_Maybe_Res)
			_ = a
			var err error
			r.R0, err = impl.(Failer).Maybe(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mFailerMaybe.ArgsPool = &failer_Maybe_Args_pool
	mFailerMaybe.ResPool = &failer_Maybe_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Failer",
		Iface:   reflect.TypeOf((*Failer)(nil)).Elem(),
		Impl:    reflect.TypeOf(failerImpl{}),
		Methods: []*codegen.MethodSpec{mFailerCrashy, mFailerMaybe},
		ClientStub: func(conn codegen.Conn) any {
			return failer_ClientStub{conn: conn, mCrashy: mFailerCrashy, mMaybe: mFailerMaybe}
		},
	})
}

// Compile-time checks for component Mover.
var _ weaver.InstanceOf[Mover] = (*moverImpl)(nil)
var _ Mover = (*moverImpl)(nil)

type mover_Deliver_Args struct {
	P0 int64
}

// WeaverMarshal implements codec.Marshaler.
func (x *mover_Deliver_Args) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *mover_Deliver_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.Int64()
}

type mover_Deliver_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *mover_Deliver_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *mover_Deliver_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var mover_Deliver_Args_pool codegen.Pool[mover_Deliver_Args, *mover_Deliver_Args]
var mover_Deliver_Res_pool codegen.Pool[mover_Deliver_Res, *mover_Deliver_Res]

type mover_ClientStub struct {
	conn     codegen.Conn
	mDeliver *codegen.MethodSpec
}

var _ Mover = mover_ClientStub{}

func (s mover_ClientStub) Deliver(ctx context.Context, a0 int64) (int64, error) {
	args := mover_Deliver_Args_pool.Get()
	args.P0 = a0
	res := mover_Deliver_Res_pool.Get()
	var router moverRouter
	shard := routing.KeyHash(router.Deliver(a0))
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Mover", s.mDeliver, args, res, shard, true)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	mover_Deliver_Args_pool.Put(args)
	mover_Deliver_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mMoverDeliver := &codegen.MethodSpec{
		Name:    "Deliver",
		NewArgs: func() codegen.Message { return new(mover_Deliver_Args) },
		NewRes:  func() codegen.Message { return new(mover_Deliver_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*mover_Deliver_Args)
			r := res.(*mover_Deliver_Res)
			_ = a
			var err error
			r.R0, err = impl.(Mover).Deliver(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		NoRetry:  true,
		Priority: 2,
		Shard: func(args any) uint64 {
			a := args.(*mover_Deliver_Args)
			_ = a
			var router moverRouter
			return routing.KeyHash(router.Deliver(a.P0))
		},
	}
	mMoverDeliver.ArgsPool = &mover_Deliver_Args_pool
	mMoverDeliver.ResPool = &mover_Deliver_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Mover",
		Iface:   reflect.TypeOf((*Mover)(nil)).Elem(),
		Impl:    reflect.TypeOf(moverImpl{}),
		Routed:  true,
		Methods: []*codegen.MethodSpec{mMoverDeliver},
		ClientStub: func(conn codegen.Conn) any {
			return mover_ClientStub{conn: conn, mDeliver: mMoverDeliver}
		},
	})
}

// Compile-time checks for component Store.
var _ weaver.InstanceOf[Store] = (*storeImpl)(nil)
var _ Store = (*storeImpl)(nil)

type store_Get_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *store_Get_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *store_Get_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type store_Get_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *store_Get_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *store_Get_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var store_Get_Args_pool codegen.Pool[store_Get_Args, *store_Get_Args]
var store_Get_Res_pool codegen.Pool[store_Get_Res, *store_Get_Res]

type store_Put_Args struct {
	P0 string
	P1 int64
}

// WeaverMarshal implements codec.Marshaler.
func (x *store_Put_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.Int64(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *store_Put_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.Int64()
}

type store_Put_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *store_Put_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *store_Put_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var store_Put_Args_pool codegen.Pool[store_Put_Args, *store_Put_Args]
var store_Put_Res_pool codegen.Pool[store_Put_Res, *store_Put_Res]

type store_ClientStub struct {
	conn codegen.Conn
	mGet *codegen.MethodSpec
	mPut *codegen.MethodSpec
}

var _ Store = store_ClientStub{}

func (s store_ClientStub) Get(ctx context.Context, a0 string) (int64, error) {
	args := store_Get_Args_pool.Get()
	args.P0 = a0
	res := store_Get_Res_pool.Get()
	var router storeRouter
	shard := routing.KeyHash(router.Get(a0))
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Store", s.mGet, args, res, shard, true)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	store_Get_Args_pool.Put(args)
	store_Get_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s store_ClientStub) Put(ctx context.Context, a0 string, a1 int64) (int64, error) {
	args := store_Put_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := store_Put_Res_pool.Get()
	var router storeRouter
	shard := routing.KeyHash(router.Put(a0, a1))
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/Store", s.mPut, args, res, shard, true)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	store_Put_Args_pool.Put(args)
	store_Put_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mStoreGet := &codegen.MethodSpec{
		Name:    "Get",
		NewArgs: func() codegen.Message { return new(store_Get_Args) },
		NewRes:  func() codegen.Message { return new(store_Get_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*store_Get_Args)
			r := res.(*store_Get_Res)
			_ = a
			var err error
			r.R0, err = impl.(Store).Get(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Priority: 1,
		Shard: func(args any) uint64 {
			a := args.(*store_Get_Args)
			_ = a
			var router storeRouter
			return routing.KeyHash(router.Get(a.P0))
		},
	}
	mStoreGet.ArgsPool = &store_Get_Args_pool
	mStoreGet.ResPool = &store_Get_Res_pool
	mStorePut := &codegen.MethodSpec{
		Name:    "Put",
		NewArgs: func() codegen.Message { return new(store_Put_Args) },
		NewRes:  func() codegen.Message { return new(store_Put_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*store_Put_Args)
			r := res.(*store_Put_Res)
			_ = a
			var err error
			r.R0, err = impl.(Store).Put(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
		Shard: func(args any) uint64 {
			a := args.(*store_Put_Args)
			_ = a
			var router storeRouter
			return routing.KeyHash(router.Put(a.P0, a.P1))
		},
	}
	mStorePut.ArgsPool = &store_Put_Args_pool
	mStorePut.ResPool = &store_Put_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/Store",
		Iface:   reflect.TypeOf((*Store)(nil)).Elem(),
		Impl:    reflect.TypeOf(storeImpl{}),
		Routed:  true,
		Methods: []*codegen.MethodSpec{mStoreGet, mStorePut},
		ClientStub: func(conn codegen.Conn) any {
			return store_ClientStub{conn: conn, mGet: mStoreGet, mPut: mStorePut}
		},
	})
}

// Compile-time checks for component StoreProxy.
var _ weaver.InstanceOf[StoreProxy] = (*storeProxyImpl)(nil)
var _ StoreProxy = (*storeProxyImpl)(nil)

type storeProxy_GetVia_Args struct {
	P0 string
}

// WeaverMarshal implements codec.Marshaler.
func (x *storeProxy_GetVia_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *storeProxy_GetVia_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
}

type storeProxy_GetVia_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *storeProxy_GetVia_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *storeProxy_GetVia_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var storeProxy_GetVia_Args_pool codegen.Pool[storeProxy_GetVia_Args, *storeProxy_GetVia_Args]
var storeProxy_GetVia_Res_pool codegen.Pool[storeProxy_GetVia_Res, *storeProxy_GetVia_Res]

type storeProxy_PutVia_Args struct {
	P0 string
	P1 int64
}

// WeaverMarshal implements codec.Marshaler.
func (x *storeProxy_PutVia_Args) WeaverMarshal(e *codec.Encoder) {
	e.String(x.P0)
	e.Int64(x.P1)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *storeProxy_PutVia_Args) WeaverUnmarshal(d *codec.Decoder) {
	x.P0 = d.String()
	x.P1 = d.Int64()
}

type storeProxy_PutVia_Res struct {
	R0     int64
	Err    string
	HasErr bool
}

// WeaverMarshal implements codec.Marshaler.
func (x *storeProxy_PutVia_Res) WeaverMarshal(e *codec.Encoder) {
	e.Int64(x.R0)
	e.String(x.Err)
	e.Bool(x.HasErr)
}

// WeaverUnmarshal implements codec.Unmarshaler.
func (x *storeProxy_PutVia_Res) WeaverUnmarshal(d *codec.Decoder) {
	x.R0 = d.Int64()
	x.Err = d.String()
	x.HasErr = d.Bool()
}

var storeProxy_PutVia_Args_pool codegen.Pool[storeProxy_PutVia_Args, *storeProxy_PutVia_Args]
var storeProxy_PutVia_Res_pool codegen.Pool[storeProxy_PutVia_Res, *storeProxy_PutVia_Res]

type storeProxy_ClientStub struct {
	conn    codegen.Conn
	mGetVia *codegen.MethodSpec
	mPutVia *codegen.MethodSpec
}

var _ StoreProxy = storeProxy_ClientStub{}

func (s storeProxy_ClientStub) GetVia(ctx context.Context, a0 string) (int64, error) {
	args := storeProxy_GetVia_Args_pool.Get()
	args.P0 = a0
	res := storeProxy_GetVia_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/StoreProxy", s.mGetVia, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	storeProxy_GetVia_Args_pool.Put(args)
	storeProxy_GetVia_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func (s storeProxy_ClientStub) PutVia(ctx context.Context, a0 string, a1 int64) (int64, error) {
	args := storeProxy_PutVia_Args_pool.Get()
	args.P0 = a0
	args.P1 = a1
	res := storeProxy_PutVia_Res_pool.Get()
	err := s.conn.Invoke(ctx, "repro/internal/testpkg/StoreProxy", s.mPutVia, args, res, 0, false)
	r0 := res.R0
	rerr := codegen.WireToError(res.Err, res.HasErr)
	storeProxy_PutVia_Args_pool.Put(args)
	storeProxy_PutVia_Res_pool.Put(res)
	if err != nil {
		return r0, err
	}
	return r0, rerr
}

func init() {
	mStoreProxyGetVia := &codegen.MethodSpec{
		Name:    "GetVia",
		NewArgs: func() codegen.Message { return new(storeProxy_GetVia_Args) },
		NewRes:  func() codegen.Message { return new(storeProxy_GetVia_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*storeProxy_GetVia_Args)
			r := res.(*storeProxy_GetVia_Res)
			_ = a
			var err error
			r.R0, err = impl.(StoreProxy).GetVia(ctx, a.P0)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mStoreProxyGetVia.ArgsPool = &storeProxy_GetVia_Args_pool
	mStoreProxyGetVia.ResPool = &storeProxy_GetVia_Res_pool
	mStoreProxyPutVia := &codegen.MethodSpec{
		Name:    "PutVia",
		NewArgs: func() codegen.Message { return new(storeProxy_PutVia_Args) },
		NewRes:  func() codegen.Message { return new(storeProxy_PutVia_Res) },
		Do: func(ctx context.Context, impl, args, res any) {
			a := args.(*storeProxy_PutVia_Args)
			r := res.(*storeProxy_PutVia_Res)
			_ = a
			var err error
			r.R0, err = impl.(StoreProxy).PutVia(ctx, a.P0, a.P1)
			r.Err, r.HasErr = codegen.ErrorToWire(err)
		},
	}
	mStoreProxyPutVia.ArgsPool = &storeProxy_PutVia_Args_pool
	mStoreProxyPutVia.ResPool = &storeProxy_PutVia_Res_pool
	codegen.Register(codegen.Registration{
		Name:    "repro/internal/testpkg/StoreProxy",
		Iface:   reflect.TypeOf((*StoreProxy)(nil)).Elem(),
		Impl:    reflect.TypeOf(storeProxyImpl{}),
		Methods: []*codegen.MethodSpec{mStoreProxyGetVia, mStoreProxyPutVia},
		ClientStub: func(conn codegen.Conn) any {
			return storeProxy_ClientStub{conn: conn, mGetVia: mStoreProxyGetVia, mPutVia: mStoreProxyPutVia}
		},
	})
}

// Encoders and decoders for the types reachable from component methods.

func weaverEnc_Kinds(e *codec.Encoder, x *Kinds) {
	weaverEnc_map_string_int32(e, &x.Names)
	weaverEnc_map_int64_string(e, &x.ByID)
	weaverEnc_map_bool_uint16(e, &x.Flags)
	weaverEnc_ptr_Leaf(e, &x.Leaf)
	weaverEnc_ptr_ptr_int8(e, &x.Depth)
	weaverEnc_array3_int16(e, &x.Arr)
	e.Bytes(x.Blob)
	e.Int64(x.At.UnixNano())
	e.Int64(int64(x.TTL))
	weaverEnc_slice_slice_string(e, &x.Grid)
	weaverEnc_slice_struct(e, &x.Marks)
	weaverEnc_array2_struct(e, &x.Pair)
	e.String(string(x.Label))
	weaverEnc_slice_Label(e, &x.Labels)
	e.Uint(x.U)
	e.Int(x.I)
	weaverEnc_ptr_Kinds(e, &x.Next)
}

func weaverDec_Kinds(d *codec.Decoder, x *Kinds) {
	weaverDec_map_string_int32(d, &x.Names)
	weaverDec_map_int64_string(d, &x.ByID)
	weaverDec_map_bool_uint16(d, &x.Flags)
	weaverDec_ptr_Leaf(d, &x.Leaf)
	weaverDec_ptr_ptr_int8(d, &x.Depth)
	weaverDec_array3_int16(d, &x.Arr)
	x.Blob = d.Bytes()
	x.At = time.Unix(0, d.Int64()).UTC()
	x.TTL = time.Duration(d.Int64())
	weaverDec_slice_slice_string(d, &x.Grid)
	weaverDec_slice_struct(d, &x.Marks)
	weaverDec_array2_struct(d, &x.Pair)
	x.Label = Label(d.String())
	weaverDec_slice_Label(d, &x.Labels)
	x.U = d.Uint()
	x.I = d.Int()
	weaverDec_ptr_Kinds(d, &x.Next)
}

func weaverEnc_map_string_int32(e *codec.Encoder, x *map[string]int32) {
	e.Len64(len(*x))
	keys := make([]string, 0, len(*x))
	for k := range *x {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := (*x)[k]
		e.String(k)
		e.Int32(v)
	}
}

func weaverDec_map_string_int32(d *codec.Decoder, x *map[string]int32) {
	n := d.Len64("map")
	m := make(map[string]int32, n)
	for i := 0; i < n; i++ {
		var k string
		k = d.String()
		var v int32
		v = d.Int32()
		m[k] = v
	}
	*x = m
}

func weaverEnc_map_int64_string(e *codec.Encoder, x *map[int64]string) {
	e.Len64(len(*x))
	keys := make([]int64, 0, len(*x))
	for k := range *x {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := (*x)[k]
		e.Int64(k)
		e.String(v)
	}
}

func weaverDec_map_int64_string(d *codec.Decoder, x *map[int64]string) {
	n := d.Len64("map")
	m := make(map[int64]string, n)
	for i := 0; i < n; i++ {
		var k int64
		k = d.Int64()
		var v string
		v = d.String()
		m[k] = v
	}
	*x = m
}

func weaverEnc_map_bool_uint16(e *codec.Encoder, x *map[bool]uint16) {
	e.Len64(len(*x))
	for _, k := range [2]bool{false, true} {
		v, ok := (*x)[k]
		if !ok {
			continue
		}
		e.Bool(k)
		e.Uint16(v)
	}
}

func weaverDec_map_bool_uint16(d *codec.Decoder, x *map[bool]uint16) {
	n := d.Len64("map")
	m := make(map[bool]uint16, n)
	for i := 0; i < n; i++ {
		var k bool
		k = d.Bool()
		var v uint16
		v = d.Uint16()
		m[k] = v
	}
	*x = m
}

func weaverEnc_ptr_Leaf(e *codec.Encoder, x **Leaf) {
	if *x == nil {
		e.Present(false)
		return
	}
	e.Present(true)
	weaverEnc_Leaf(e, *x)
}

func weaverDec_ptr_Leaf(d *codec.Decoder, x **Leaf) {
	if !d.Present() {
		*x = nil
		return
	}
	p := new(Leaf)
	weaverDec_Leaf(d, p)
	*x = p
}

func weaverEnc_ptr_ptr_int8(e *codec.Encoder, x ***int8) {
	if *x == nil {
		e.Present(false)
		return
	}
	e.Present(true)
	weaverEnc_ptr_int8(e, *x)
}

func weaverDec_ptr_ptr_int8(d *codec.Decoder, x ***int8) {
	if !d.Present() {
		*x = nil
		return
	}
	p := new(*int8)
	weaverDec_ptr_int8(d, p)
	*x = p
}

func weaverEnc_array3_int16(e *codec.Encoder, x *[3]int16) {
	for i := range *x {
		e.Int16((*x)[i])
	}
}

func weaverDec_array3_int16(d *codec.Decoder, x *[3]int16) {
	for i := range *x {
		(*x)[i] = d.Int16()
	}
}

func weaverEnc_slice_slice_string(e *codec.Encoder, x *[][]string) {
	e.Len64(len(*x))
	for i := range *x {
		weaverEnc_slice_string(e, &(*x)[i])
	}
}

func weaverDec_slice_slice_string(d *codec.Decoder, x *[][]string) {
	s := make([][]string, d.Len64("slice"))
	for i := range s {
		weaverDec_slice_string(d, &s[i])
	}
	*x = s
}

func weaverEnc_slice_struct(e *codec.Encoder, x *[]struct{}) {
	e.Len64(len(*x))
}

func weaverDec_slice_struct(d *codec.Decoder, x *[]struct{}) {
	*x = make([]struct{}, d.Count())
}

func weaverEnc_array2_struct(e *codec.Encoder, x *[2]struct{}) {
	for i := range *x {
		weaverEnc_struct(e, &(*x)[i])
	}
}

func weaverDec_array2_struct(d *codec.Decoder, x *[2]struct{}) {
	for i := range *x {
		weaverDec_struct(d, &(*x)[i])
	}
}

func weaverEnc_slice_Label(e *codec.Encoder, x *[]Label) {
	e.Len64(len(*x))
	for i := range *x {
		e.String(string((*x)[i]))
	}
}

func weaverDec_slice_Label(d *codec.Decoder, x *[]Label) {
	s := make([]Label, d.Len64("slice"))
	for i := range s {
		s[i] = Label(d.String())
	}
	*x = s
}

func weaverEnc_ptr_Kinds(e *codec.Encoder, x **Kinds) {
	if *x == nil {
		e.Present(false)
		return
	}
	e.Present(true)
	weaverEnc_Kinds(e, *x)
}

func weaverDec_ptr_Kinds(d *codec.Decoder, x **Kinds) {
	if !d.Present() {
		*x = nil
		return
	}
	p := new(Kinds)
	weaverDec_Kinds(d, p)
	*x = p
}

func weaverEnc_Leaf(e *codec.Encoder, x *Leaf) {
	e.Uint64(x.A)
	e.Bool(x.B)
	weaverEnc_slice_uint32(e, &x.C)
}

func weaverDec_Leaf(d *codec.Decoder, x *Leaf) {
	x.A = d.Uint64()
	x.B = d.Bool()
	weaverDec_slice_uint32(d, &x.C)
}

func weaverEnc_ptr_int8(e *codec.Encoder, x **int8) {
	if *x == nil {
		e.Present(false)
		return
	}
	e.Present(true)
	e.Int8(**x)
}

func weaverDec_ptr_int8(d *codec.Decoder, x **int8) {
	if !d.Present() {
		*x = nil
		return
	}
	p := new(int8)
	*p = d.Int8()
	*x = p
}

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

func weaverEnc_struct(e *codec.Encoder, x *struct{}) {
}

func weaverDec_struct(d *codec.Decoder, x *struct{}) {
}

func weaverEnc_slice_uint32(e *codec.Encoder, x *[]uint32) {
	e.Len64(len(*x))
	for i := range *x {
		e.Uint32((*x)[i])
	}
}

func weaverDec_slice_uint32(d *codec.Decoder, x *[]uint32) {
	s := make([]uint32, d.Len64("slice"))
	for i := range s {
		s[i] = d.Uint32()
	}
	*x = s
}
