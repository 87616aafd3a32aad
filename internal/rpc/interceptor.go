package rpc

import (
	"context"
	"sync"
	"time"
)

// A ServerCall carries one admitted request through the server's
// interceptor chain. Interceptors may read the call's metadata, replace
// the context, or short-circuit by returning an error without calling
// next. The struct is pooled: it is only valid for the duration of the
// chain.
type ServerCall struct {
	// Info describes the call (method, span context, shard, meta); the
	// same value is available to handlers via InfoFromContext.
	Info CallInfo
	// Args is the decoded request payload. It aliases a pooled read
	// buffer; anything retained beyond the chain must be copied.
	Args []byte

	handler *registeredHandler
	// Handler results, filled by the innermost stage.
	result []byte
	owner  BufOwner
}

// ServerNext invokes the remainder of the server's interceptor chain.
type ServerNext func(ctx context.Context, call *ServerCall) error

// A ServerInterceptor is one composable stage of the server's dispatch
// path. The chain is composed once at construction, so per-call overhead
// is a plain indirect call — default calls stay inside the dispatch
// allocation budget.
type ServerInterceptor func(ctx context.Context, call *ServerCall, next ServerNext) error

// Use appends an interceptor to the server's dispatch chain, outside the
// built-in fault-injection stage and inside admission. It must be called
// before the server starts serving.
func (s *Server) Use(ic ServerInterceptor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.interceptors = append(s.interceptors, ic)
	s.rebuildChainLocked()
}

// rebuildChainLocked composes the dispatch chain: user interceptors in
// Use order (outermost first), then the built-in fault-injection stage,
// then the handler itself.
func (s *Server) rebuildChainLocked() {
	next := ServerNext(invokeHandler)
	stages := make([]ServerInterceptor, 0, len(s.interceptors)+1)
	stages = append(stages, s.interceptors...)
	stages = append(stages, s.faultStage)
	for i := len(stages) - 1; i >= 0; i-- {
		ic, inner := stages[i], next
		next = func(ctx context.Context, call *ServerCall) error {
			return ic(ctx, call, inner)
		}
	}
	s.chain = next
}

// faultStage is the built-in fault-injection interceptor: it realizes the
// chaos surface's degrade-replica fault (SetDelay) by stalling dispatch,
// respecting cancellation. Its sibling fault, the response-flusher stall
// (SetFlushStall), necessarily lives in the flusher itself — it must
// squeeze the batched write, after handler completion — but both are set
// through the same chaos.Surface entry points.
func (s *Server) faultStage(ctx context.Context, call *ServerCall, next ServerNext) error {
	if d := time.Duration(s.delayNanos.Load()); d > 0 {
		timer := s.opts.Clock.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return next(ctx, call)
}

// invokeHandler is the innermost stage: it runs the registered handler
// and records its result on the call.
func invokeHandler(ctx context.Context, call *ServerCall) error {
	var err error
	call.result, call.owner, err = call.handler.ffn(ctx, call.Args)
	return err
}

var serverCallPool = sync.Pool{New: func() any { return new(ServerCall) }}

func getServerCall() *ServerCall  { return serverCallPool.Get().(*ServerCall) }
func putServerCall(c *ServerCall) { *c = ServerCall{}; serverCallPool.Put(c) }
