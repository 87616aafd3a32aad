package repro

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/codec"
	"repro/internal/codegen"
	"repro/internal/rpc"
)

// findRegistration looks up a component registration by full name.
func findRegistration(name string) (*codegen.Registration, bool) {
	return codegen.Find(name)
}

// newEchoHTTP builds the echo handler used by the HTTP transport bench.
func newEchoHTTP() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
	return mux
}

func serveHTTP(lis net.Listener, handler http.Handler) {
	srv := &http.Server{Handler: handler}
	_ = srv.Serve(lis)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

func postJSON(client *http.Client, url string, payload []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// registerEcho installs a handler on srv that answers with its args from
// a pooled encoder, the shape of a generated component handler.
func registerEcho(srv *rpc.Server, name string) {
	srv.RegisterFramed(name, func(ctx context.Context, args []byte) ([]byte, rpc.BufOwner, error) {
		enc := codec.GetEncoder()
		enc.Reserve(rpc.ResponseHeadroom)
		enc.Raw(args)
		return enc.Framed(), enc, nil
	})
}

// callEcho sends payload from a pooled encoder with transport headroom,
// the path generated stubs take, and releases the response.
func callEcho(ctx context.Context, client *rpc.Client, method rpc.MethodID, payload []byte, opts rpc.CallOptions) error {
	enc := codec.GetEncoder()
	enc.Reserve(rpc.PayloadHeadroom)
	enc.Raw(payload)
	resp, err := client.CallFramed(ctx, method, enc.Framed(), opts)
	codec.PutEncoder(enc)
	if err != nil {
		return err
	}
	resp.Release()
	return nil
}

// emptyMsg is the args and results struct of a method with no parameters
// and no results: it encodes to no bytes.
type emptyMsg struct{}

func (*emptyMsg) WeaverMarshal(*codec.Encoder)   {}
func (*emptyMsg) WeaverUnmarshal(*codec.Decoder) {}
