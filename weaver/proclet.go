package weaver

import (
	"context"
	"fmt"
	"os"
	"reflect"

	"repro/internal/codegen"
	"repro/internal/logging"
	"repro/internal/pipe"
	"repro/internal/proclet"
)

// initProclet initializes the process as a proclet child of a multiprocess
// deployer (paper §4.3): it connects to the envelope over the inherited
// pipe, registers, hosts whatever components the manager assigns, and —
// for every group except "main" — blocks until shutdown so that the
// application's main function runs only in the driver replica.
func initProclet(ctx context.Context) (*App, error) {
	conn, err := pipe.ProcletConn()
	if err != nil {
		return nil, err
	}
	group := os.Getenv("WEAVER_GROUP")
	replica := os.Getenv("WEAVER_REPLICA")
	if group == "" || replica == "" {
		return nil, fmt.Errorf("weaver: WEAVER_PROCLET set but WEAVER_GROUP/WEAVER_REPLICA missing")
	}

	// Everything else the replica needs from the deployer (its components
	// and admission limits) arrives over the pipe.
	p, err := proclet.Start(ctx, proclet.Options{
		Conn:      conn,
		ProcletID: replica,
		Group:     group,
		Fill: func(impl any, name string, logger *logging.Logger, resolve func(reflect.Type) (any, error)) error {
			return FillComponent(impl, name, logger, resolve, defaultListen)
		},
		TraceFraction: traceFraction(),
		Logger:        logging.New(logging.Options{Component: "proclet", Replica: replica, Min: logLevel()}),
	})
	if err != nil {
		return nil, err
	}

	if group != "main" {
		// Non-driver replicas exist only to host components: serve until
		// the envelope shuts us down, then exit the process.
		err := p.Wait()
		if err != nil {
			fmt.Fprintf(os.Stderr, "weaver: proclet terminated: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}

	// The driver replica returns control to the application's main
	// function, with component resolution backed by the proclet. If the
	// deployer shuts the deployment down, exit with it.
	go func() {
		_ = p.Wait()
		os.Exit(0)
	}()

	app := &App{
		ctx:     ctx,
		runtime: p.Runtime(),
		logger:  logging.New(logging.Options{Component: "weaver", Replica: replica, Min: logLevel()}),
		shutdown: func(context.Context) error {
			p.Shutdown(nil)
			return nil
		},
	}
	return app, nil
}

// describeAndExit prints the component inventory, one "name routed" line
// per component, for deployers that introspect the application binary
// (WEAVER_DESCRIBE=1), then exits.
func describeAndExit() {
	for _, reg := range codegen.All() {
		fmt.Printf("%s %t\n", reg.Name, reg.Routed)
	}
	os.Exit(0)
}
