// Command gmserved is the long-running sweep service: a disk-backed,
// content-addressed result store fronted by the experiment harness, so
// many clients (CI jobs, notebooks, colleagues on one box) share one
// warm cache and one in-flight run set.
//
// Usage:
//
//	gmserved -store /var/cache/graphmem -addr :8090
//	gmserved -store /var/cache/graphmem -store-max 2G     # LRU cap
//	gmserved -store /var/cache/graphmem -gc 512M          # offline GC, then exit
//
//	curl -s localhost:8090/api/run -d '{"profile":"bench","kernel":"pr","graph":"kron","config":"sdclp"}'
//	curl -s localhost:8090/api/sweep -d '{"profile":"bench","experiments":["tab1","fig10"],"kernels":"pr,cc"}'
//	curl -sN localhost:8090/api/jobs/j0001/events       # follow progress
//	curl -s  localhost:8090/api/jobs/j0001/result       # fetch the result
//	curl -s  localhost:8090/metrics                     # Prometheus (incl. store hit rate)
//
// A point requested twice — by one client or many — simulates once: the
// workbench's single-flight memo dedupes in-flight runs and serves
// repeats within the process, and the store serves them across
// restarts. Results are byte-identical to a local
// gmreport/gmsim run of the same request.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"graphmem"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	storeMax := flag.String("store-max", "", "LRU size cap for the store, e.g. 512M or 2G (enforced on every write)")
	gcSize := flag.String("gc", "", "shrink the store to this size (LRU eviction) and exit instead of serving")
	quiet := flag.Bool("q", false, "suppress request/job logging")
	// The shared run flags are the service's defaults: -store (strongly
	// recommended: without it only the per-process memo dedupes), -j and
	// -wj as everywhere; -profile/-warmup/-measure apply to requests that
	// leave them out; -check/-sample/-pf/-bp to every run served.
	opts := graphmem.RegisterRunFlags(flag.CommandLine, "")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gmserved: "+format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}

	tmpl, err := opts.NewWorkbench("gmserved")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmserved:", err)
		os.Exit(1)
	}
	store := tmpl.Store

	if *gcSize != "" {
		if store == nil {
			fmt.Fprintln(os.Stderr, "gmserved: -gc needs -store DIR")
			os.Exit(1)
		}
		maxBytes, err := graphmem.ParseStoreSize(*gcSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmserved:", err)
			os.Exit(1)
		}
		removed, freed, err := store.GC(maxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmserved:", err)
			os.Exit(1)
		}
		entries, bytes, _ := store.Size()
		fmt.Fprintf(os.Stderr, "gmserved: gc removed %d entries (%d bytes); store now %d entries, %d bytes\n",
			removed, freed, entries, bytes)
		return
	}

	if *storeMax != "" {
		if store == nil {
			fmt.Fprintln(os.Stderr, "gmserved: -store-max needs -store DIR")
			os.Exit(1)
		}
		maxBytes, err := graphmem.ParseStoreSize(*storeMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmserved:", err)
			os.Exit(1)
		}
		store.SetMaxBytes(maxBytes)
	}

	srv := newServer(*opts, tmpl, logf)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmserved:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gmserved: serving on http://%s/ (store: %s)\n", ln.Addr(), storeDesc(store))
	if err := (&http.Server{Handler: srv.handler()}).Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "gmserved:", err)
		os.Exit(1)
	}
}

func storeDesc(s *graphmem.ResultStore) string {
	if s == nil {
		return "none, in-memory memo only"
	}
	return s.Dir()
}
