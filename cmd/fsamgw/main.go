// Command fsamgw is the fault-tolerant gateway in front of a fleet of
// fsamd replicas. It routes analyze requests by their content address over
// a consistent-hash ring (keeping each replica's result cache hot for its
// share of the keyspace) and absorbs replica faults so clients never see
// them: active /readyz probes, retries with exponential backoff honoring
// Retry-After, per-replica circuit breakers, and hedged requests after an
// adaptive p99 delay (the p99 of recent analyze latencies, at least 25ms).
//
// Usage:
//
//	fsamgw -replicas URL[,URL...] [flags]
//
//	-addr ADDR            listen address (default 127.0.0.1:8070; port 0
//	                      picks a free port, reported on stdout)
//	-replicas URLS        comma-separated fsamd base URLs (required)
//	-probe D              health-probe interval (default 1s)
//	-probe-timeout D      per-probe timeout (default 2s)
//	-eject N              consecutive probe failures that eject a replica
//	                      (default 3)
//	-retries N            attempts per replica incl. the first (default 3)
//	-breaker-threshold N  consecutive failures that open a breaker (default 5)
//	-breaker-cooldown D   open period before a half-open probe (default 5s)
//	-vnodes N             ring points per replica (default 64)
//	-grace D              drain grace period on SIGTERM/SIGINT (default 30s)
//	-quiet                suppress routing logs
//
// The gateway serves the fsamd API surface (POST /v1/analyze, GET
// /v1/pointsto, /v1/diagnostics) plus its own
// /healthz, /readyz (503 when no replica can take new work) and /metrics
// (fsamgw_* counters: retries, failovers, hedges, breaker transitions,
// cache hits, replica states). Responses carry X-Fsamgw-Replica
// naming the replica that served them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/exitcode"
	"repro/internal/gateway"
	"repro/internal/resilience"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsamgw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8070", "listen address (port 0 picks a free port)")
		replicas     = fs.String("replicas", "", "comma-separated fsamd base URLs (required)")
		probe        = fs.Duration("probe", time.Second, "health-probe interval")
		probeTimeout = fs.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
		eject        = fs.Int("eject", 3, "consecutive probe failures that eject a replica")
		retries      = fs.Int("retries", 3, "attempts per replica including the first")
		brkThreshold = fs.Int("breaker-threshold", 5, "consecutive failures that open a breaker")
		brkCooldown  = fs.Duration("breaker-cooldown", 5*time.Second, "open period before a half-open probe")
		vnodes       = fs.Int("vnodes", 64, "ring points per replica")
		grace        = fs.Duration("grace", 30*time.Second, "drain grace period on SIGTERM/SIGINT")
		quiet        = fs.Bool("quiet", false, "suppress routing logs")
	)
	if err := fs.Parse(args); err != nil {
		return exitcode.Usage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "fsamgw: unexpected arguments")
		return exitcode.Usage
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(stderr, "fsamgw: -replicas is required")
		return exitcode.Usage
	}

	logger := log.New(stderr, "fsamgw: ", log.LstdFlags|log.Lmsgprefix)
	gwLog := logger
	if *quiet {
		gwLog = log.New(io.Discard, "", 0)
	}
	gw, err := gateway.New(gateway.Options{
		Replicas:         urls,
		VNodes:           *vnodes,
		ProbeInterval:    *probe,
		ProbeTimeout:     *probeTimeout,
		EjectAfter:       *eject,
		Retry:            resilience.Policy{MaxAttempts: *retries},
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		Log:              gwLog,
	})
	if err != nil {
		fmt.Fprintln(stderr, "fsamgw:", err)
		return exitcode.Usage
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fsamgw:", err)
		return exitcode.Failure
	}
	// The bound address goes to stdout (not the log) so scripts using
	// port 0 can scrape it reliably.
	fmt.Fprintf(stdout, "fsamgw: listening on %s (%d replicas)\n", ln.Addr(), len(urls))

	gw.Start()
	defer gw.Stop()

	httpSrv := &http.Server{Handler: gw.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "fsamgw:", err)
		return exitcode.Failure
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (grace %s)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Printf("grace period expired with requests in flight")
		} else {
			logger.Printf("shutdown: %v", err)
		}
		return exitcode.Failure
	}
	logger.Printf("drained cleanly")
	return exitcode.OK
}
