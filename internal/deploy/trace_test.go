package deploy

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/boutique"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/tracing"
	"repro/weaver"
)

// traceFill is like fill but satisfies listener fields (the boutique
// frontend declares one) with throwaway ports.
func traceFill(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
	listen := func(string) (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	return weaver.FillComponent(impl, name, logger, resolve, listen)
}

// TestMultiHopTraceAssembled deploys the boutique with every component in
// its own group (so calls cross the data plane) and checks that one user
// request — frontend ViewCart fanning out to cart, catalog, currency, and
// shipping — is assembled by the manager into a single trace: one trace
// id, each hop's span parented on the frontend call's span, and the
// sampled bit carried across processes rather than re-decided per hop.
func TestMultiHopTraceAssembled(t *testing.T) {
	ctx := context.Background()
	d, err := StartInProcess(ctx, Options{
		Config:        manager.Config{App: "trace-test"},
		Fill:          traceFill,
		TraceFraction: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	fe, err := Get[boutique.Frontend](ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	const user = "trace-user"
	if err := fe.AddToCart(ctx, user, "OLJCESPC7Z", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.ViewCart(ctx, user, "EUR"); err != nil {
		t.Fatal(err)
	}

	// Spans reach the manager via each proclet's periodic telemetry
	// report; poll until the ViewCart trace has all its hops. Span
	// components are full registration names.
	var got []tracing.Span
	all := map[uint64][]tracing.Span{}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && got == nil {
		all = map[uint64][]tracing.Span{}
		for _, s := range d.Manager.Spans() {
			all[s.Trace] = append(all[s.Trace], s)
		}
		for _, spans := range all {
			if hasSpan(spans, "Frontend", "ViewCart") &&
				hasSpan(spans, "Cart", "GetCart") &&
				hasSpan(spans, "ProductCatalog", "GetProduct") {
				got = spans
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got == nil {
		for id, spans := range all {
			for _, s := range spans {
				t.Logf("trace %d: %s.%s parent=%d remote=%v", id, s.Component, s.Method, s.Parent, s.Remote)
			}
		}
		t.Fatalf("no complete ViewCart trace assembled; collected %d traces", len(all))
	}

	// Every hop records a span of its own: no two spans of the trace
	// share an id.
	ids := map[uint64]tracing.Span{}
	for _, s := range got {
		if prev, dup := ids[s.ID]; dup {
			t.Errorf("span id %d shared by %s.%s and %s.%s", s.ID, prev.Component, prev.Method, s.Component, s.Method)
		}
		ids[s.ID] = s
	}

	// Every hop of the request must hang off the frontend call's span.
	root, _ := findSpan(got, "Frontend", "ViewCart")
	for _, hop := range []struct{ component, method string }{
		{"Cart", "GetCart"},
		{"ProductCatalog", "GetProduct"},
		{"Currency", "Convert"},
		{"Shipping", "GetQuote"},
	} {
		s, ok := findSpan(got, hop.component, hop.method)
		if !ok {
			t.Errorf("trace %d missing %s.%s span", root.Trace, hop.component, hop.method)
			continue
		}
		if s.Trace != root.Trace {
			t.Errorf("%s.%s span in trace %d, want %d", hop.component, hop.method, s.Trace, root.Trace)
		}
		if s.Parent != root.ID {
			t.Errorf("%s.%s span parent = %d, want the ViewCart span %d", hop.component, hop.method, s.Parent, root.ID)
		}
		if !s.Remote {
			t.Errorf("%s.%s span not marked remote; the hop should have crossed the data plane", hop.component, hop.method)
		}
	}
}

func hasSpan(spans []tracing.Span, component, method string) bool {
	_, ok := findSpan(spans, component, method)
	return ok
}

func findSpan(spans []tracing.Span, component, method string) (tracing.Span, bool) {
	for _, s := range spans {
		if strings.HasSuffix(s.Component, "/"+component) && s.Method == method {
			return s, true
		}
	}
	return tracing.Span{}, false
}
