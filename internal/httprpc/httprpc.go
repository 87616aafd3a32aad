// Package httprpc is the "status quo" baseline RPC stack used in the
// paper's evaluation (§6.1): a self-describing, versioned protocol — JSON
// bodies over HTTP/1.1 — standing in for the gRPC + Protocol Buffers stack
// of the original microservice deployment. Like that stack, it pays for
// field names/types on every message and for general-purpose HTTP framing
// on every call, which is precisely the overhead the weaver data plane
// eliminates by exploiting atomic rollouts.
//
// The package implements the same codegen.Conn contract as the weaver data
// plane, so the identical generated stubs and component implementations run
// over either transport; only the deployment wiring differs.
package httprpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/metrics"
	"repro/internal/routing"
)

// pathPrefix is the URL prefix for component method endpoints:
// /rpc/<component full name>/<method>.
const pathPrefix = "/rpc/"

// Server hosts component implementations over HTTP.
type Server struct {
	mux  *http.ServeMux
	srv  *http.Server
	mu   sync.Mutex
	lis  net.Listener
	reqs *metrics.Counter
}

// NewServer returns an empty HTTP RPC server.
func NewServer() *Server {
	return &Server{
		mux:  http.NewServeMux(),
		reqs: metrics.Default.Counter("httprpc.server.requests"),
	}
}

// Host exposes a component implementation. served, if non-nil, is
// incremented once per handled call (the baseline's load accounting).
func (s *Server) Host(reg *codegen.Registration, impl any, served *metrics.Counter) {
	for _, m := range reg.Methods {
		m := m
		pattern := pathPrefix + reg.Name + "/" + m.Name
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.reqs.Inc()
			if served != nil {
				served.Inc()
			}
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			args := m.NewArgs()
			if err := json.Unmarshal(body, args); err != nil {
				http.Error(w, fmt.Sprintf("bad arguments: %v", err), http.StatusBadRequest)
				return
			}
			res := m.NewRes()
			m.Do(r.Context(), impl, args, res)
			out, err := json.Marshal(res)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(out)
		})
	}
}

// Listen starts serving on addr (use "127.0.0.1:0" for ephemeral) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	srv := s.srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(lis) }()
	return lis.Addr().String(), nil
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.srv = nil
	return err
}

// Conn invokes component methods over HTTP+JSON, picking replicas with a
// balancer. It implements codegen.Conn.
type Conn struct {
	component string
	balancer  routing.Balancer
	client    *http.Client
}

// NewConn returns a baseline connection for one component.
func NewConn(component string, balancer routing.Balancer) *Conn {
	return &Conn{
		component: component,
		balancer:  balancer,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// Balancer returns the conn's balancer for replica updates.
func (c *Conn) Balancer() routing.Balancer { return c.balancer }

// Close releases idle connections.
func (c *Conn) Close() {
	c.client.CloseIdleConnections()
}

// Invoke implements codegen.Conn.
func (c *Conn) Invoke(ctx context.Context, component string, m *codegen.MethodSpec, args codec.Marshaler, res codec.Unmarshaler, shard uint64, hasShard bool) error {
	addr, err := c.balancer.Pick(shard, hasShard)
	if err != nil {
		return err
	}
	body, err := json.Marshal(args)
	if err != nil {
		return fmt.Errorf("httprpc: encoding %s.%s args: %w", c.component, m.Name, err)
	}
	url := "http://" + addr + pathPrefix + c.component + "/" + m.Name
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("httprpc: calling %s: %w", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("httprpc: %s returned %s: %s", url, resp.Status, strings.TrimSpace(string(out)))
	}
	return json.Unmarshal(out, res)
}
