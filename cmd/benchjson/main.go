// Command benchjson converts `go test -bench` output on stdin into a JSON
// record of benchmark results. `make bench-json` uses it to snapshot the
// data-plane microbenchmarks into BENCH_rpc.json so experiment results
// (EXPERIMENTS.md A9) are machine-readable and diffable across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// A Result is one benchmark line, e.g.
//
//	BenchmarkTransport/WeaverTCP-8  92558  12607 ns/op  1832 B/op  18 allocs/op
//
// Name drops the -N GOMAXPROCS suffix; Procs keeps it (1 when absent), so
// runs of one benchmark at several -cpu values stay distinguishable.
type Result struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var results []Result
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		procs := maxProcsSuffix(fields[0])
		r := Result{
			Pkg:        pkg,
			Name:       strings.TrimSuffix(fields[0], fmt.Sprintf("-%d", procs)),
			Procs:      max(procs, 1),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		if len(r.Metrics) > 0 {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(map[string]any{"results": results}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')

	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *out)
}

// maxProcsSuffix extracts the trailing -N GOMAXPROCS suffix of a benchmark
// name, or 0 if there is none.
func maxProcsSuffix(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return 0
	}
	return n
}
