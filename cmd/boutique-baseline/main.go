// Boutique-baseline runs the Online Boutique as a conventional
// microservice deployment: one service per OS process, communicating over
// a self-describing, versioned protocol (HTTP/1.1 + JSON) with statically
// configured endpoints. It is the "status quo" side of the paper's Table 2
// comparison — the role gRPC + Kubernetes play for the original demo.
//
// Every service gets a fixed port derived from -baseport, so no service
// discovery is needed:
//
//	for s in ProductCatalog Currency Cart Recommendation Shipping \
//	         Payment Email Checkout AdService Frontend; do
//	  boutique-baseline -service $s -baseport 9100 &
//	done
//
// The frontend additionally serves the storefront HTTP API on
// -httpaddr (default 127.0.0.1:9099).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"reflect"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/httprpc"
	"repro/internal/logging"
	"repro/internal/metrics"
	"repro/weaver"

	_ "repro/internal/boutique" // registers the components
)

// serviceOrder fixes each service's port offset from -baseport.
var serviceOrder = []string{
	"AdService", "Cart", "Checkout", "Currency", "Email",
	"Frontend", "Payment", "ProductCatalog", "Recommendation", "Shipping",
}

func main() {
	service := flag.String("service", "", "short name of the service to run (required)")
	basePort := flag.Int("baseport", 9100, "first port of the service port range")
	httpAddr := flag.String("httpaddr", "127.0.0.1:9099", "storefront HTTP address (Frontend only)")
	flag.Parse()
	if *service == "" {
		fmt.Fprintln(os.Stderr, "boutique-baseline: -service is required; one of", serviceOrder)
		os.Exit(2)
	}

	ports := map[string]int{}
	for i, s := range serviceOrder {
		ports[s] = *basePort + i
	}
	port, ok := ports[*service]
	if !ok {
		log.Fatalf("unknown service %q", *service)
	}

	// Resolve short names to registrations.
	regs := map[string]*codegen.Registration{}
	for _, reg := range codegen.All() {
		regs[core.ShortName(reg.Name)] = reg
	}
	reg, ok := regs[*service]
	if !ok {
		log.Fatalf("service %q is not a registered component", *service)
	}

	logger := logging.New(logging.Options{Component: "baseline", Replica: *service, Min: logging.LevelInfo})

	// The baseline runtime hosts exactly one service; every other
	// component is reached over HTTP+JSON at its well-known port.
	rt := core.NewRuntime(core.Options{
		Hosted: func(name string) bool { return name == reg.Name },
		RemoteConn: func(dep *codegen.Registration) (codegen.Conn, error) {
			depPort, ok := ports[core.ShortName(dep.Name)]
			if !ok {
				return nil, fmt.Errorf("no port for %s", dep.Name)
			}
			addr := fmt.Sprintf("127.0.0.1:%d", depPort)
			// The baseline has one replica per service; affinity routing
			// degenerates to that single endpoint, as in the original demo
			// before autoscaling kicks in.
			return httprpc.NewConn(dep.Name, addr), nil
		},
		Fill: func(impl any, name string, resolve func(reflect.Type) (any, error)) error {
			return weaver.FillComponent(impl, name, logger.With(core.ShortName(name)), resolve, func(string) (net.Listener, error) {
				return net.Listen("tcp", *httpAddr)
			})
		},
		Logger: logger,
	})

	ctx := context.Background()
	impl, err := rt.LocalImpl(ctx, reg.Name)
	if err != nil {
		log.Fatalf("initializing %s: %v", *service, err)
	}

	srv := httprpc.NewServer()
	srv.Host(reg, impl, metrics.Default.Counter("baseline.served."+*service))
	addr, err := srv.Listen(fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	logger.Info("baseline service up", "service", *service, "addr", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	_ = srv.Close()
	_ = rt.Shutdown(ctx)
}
