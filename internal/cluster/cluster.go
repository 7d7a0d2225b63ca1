// Package cluster is the fleet resilience drill that TestClusterRun gates
// on: it boots N real fsamd replicas (each a live HTTP server with its own
// cache and admission control), fronts them with an fsamgw gateway, and
// drives mixed hot/cold analysis traffic through the gateway while
// injecting chaos into one replica and kill/restarting another.
//
// The client runs with retries DISABLED — every fault the fleet produces
// must be absorbed by the gateway, or it shows up as a client-visible
// failure. The resulting Report carries the gateway's resilience counters
// and the client-observed analyze latency, and gates on the run: zero
// failures, retries and hedges actually exercised, a full breaker
// open→close cycle, and a sane fleet-wide cache hit ratio.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/server/client"
)

// Options configures a cluster run. Zero values select the defaults.
type Options struct {
	// Replicas is the fleet size (default 2).
	Replicas int
	// Requests is the total number of analyze requests (default 200).
	Requests int
	// HotRatio is the fraction of traffic on the hot key set (default 0.7);
	// the rest are unique cold programs.
	HotRatio float64
	// HotKeys is the number of distinct hot programs (default 8).
	HotKeys int
	// Workers is the client concurrency (default 8).
	Workers int
	// Chaos is injected into replica 0 (latency/error/drop faults).
	Chaos server.ChaosConfig
	// KillRestart, when set, hard-kills the LAST replica after a third of
	// the traffic and restarts it (fresh process, empty cache) later.
	KillRestart bool
	// Seed makes the traffic plan reproducible (default 1).
	Seed int64
	// Out receives progress lines (default: discard).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Replicas < 2 {
		o.Replicas = 2
	}
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.HotRatio <= 0 || o.HotRatio > 1 {
		o.HotRatio = 0.7
	}
	if o.HotKeys <= 0 {
		o.HotKeys = 8
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// Report is the outcome of a cluster run.
type Report struct {
	Requests        int
	Failures        int
	FirstFailure    string
	QueryRecoveries int

	Retries       uint64
	Hedges        uint64
	HedgeWins     uint64
	Failovers     uint64
	CacheHits     uint64
	BreakerOpens  uint64
	BreakerCloses uint64

	ChaosInjected float64
	HitRatio      float64
	Elapsed       time.Duration

	// AnalyzeP50 and AnalyzeP90 are the client-observed latencies of the
	// successful analyze requests, AnalyzeSamples of them. p90 is the
	// highest percentile a 150-request drill leaves ten samples beyond.
	// Reported, not gated.
	AnalyzeP50, AnalyzeP90 time.Duration
	AnalyzeSamples         int
}

// hitRatioFloor is the fleet-wide cache hit gate: with the default 70%
// hot traffic the observed ratio sits well above 0.5, so 0.25 tolerates a
// kill/restart emptying one replica's cache without letting broken
// routing slide.
const hitRatioFloor = 0.25

// Gate enforces the run's acceptance criteria.
func (r *Report) Gate() error {
	var errs []error
	if r.Failures > 0 {
		errs = append(errs, fmt.Errorf("%d client-visible failures (first: %s)", r.Failures, r.FirstFailure))
	}
	if r.Retries == 0 {
		errs = append(errs, errors.New("no retries observed — chaos did not exercise the retry path"))
	}
	if r.Hedges == 0 {
		errs = append(errs, errors.New("no hedged requests observed"))
	}
	if r.BreakerOpens == 0 || r.BreakerCloses == 0 {
		errs = append(errs, fmt.Errorf("no full breaker cycle (opens %d, closes %d)", r.BreakerOpens, r.BreakerCloses))
	}
	if r.HitRatio < hitRatioFloor {
		errs = append(errs, fmt.Errorf("fleet cache hit ratio %.2f below %.2f", r.HitRatio, hitRatioFloor))
	}
	return errors.Join(errs...)
}

// Print writes the human-readable report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "cluster run: %d requests in %.1fs, %d failures\n",
		r.Requests, r.Elapsed.Seconds(), r.Failures)
	fmt.Fprintf(w, "  retries %d  hedges %d (wins %d)  failovers %d\n",
		r.Retries, r.Hedges, r.HedgeWins, r.Failovers)
	fmt.Fprintf(w, "  breaker opens %d  closes %d  chaos faults injected %.0f\n",
		r.BreakerOpens, r.BreakerCloses, r.ChaosInjected)
	fmt.Fprintf(w, "  cache hits %d (fleet hit ratio %.2f)  query recoveries %d\n",
		r.CacheHits, r.HitRatio, r.QueryRecoveries)
	fmt.Fprintf(w, "  analyze latency p50 %s  p90 %s  (%d samples)\n",
		r.AnalyzeP50.Round(10*time.Microsecond), r.AnalyzeP90.Round(10*time.Microsecond), r.AnalyzeSamples)
}

// replicaProc is one in-process "fsamd": a real TCP listener and HTTP
// server over a fresh server.Server, so kills and restarts behave like a
// process dying (connections sever; the restarted instance has an empty
// cache).
type replicaProc struct {
	addr  string
	chaos server.ChaosConfig
	svc   *server.Server
	hsrv  *http.Server
}

func startReplica(addr string, chaos server.ChaosConfig) (*replicaProc, error) {
	var ln net.Listener
	var err error
	// The restart path rebinds the address the kill just released; give
	// the kernel a few tries to finish tearing the old listener down.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("replica listen %s: %w", addr, err)
	}
	svc := server.New(server.Options{Chaos: chaos, Log: log.New(io.Discard, "", 0)})
	hsrv := &http.Server{Handler: svc.Handler()}
	go hsrv.Serve(ln)
	return &replicaProc{addr: ln.Addr().String(), chaos: chaos, svc: svc, hsrv: hsrv}, nil
}

// kill severs the replica like a SIGKILL: listener and live connections
// close immediately; nothing drains.
func (rp *replicaProc) kill() { rp.hsrv.Close() }

// hotSource generates the i-th hot program — distinct globals so every hot
// key is a distinct content address.
func hotSource(i int) string {
	return fmt.Sprintf("int h%d; int *hp%d; int main() { hp%d = &h%d; return 0; }", i, i, i, i)
}

// coldSource generates a unique never-repeated program.
func coldSource(i int) string {
	return fmt.Sprintf("int c%d; int *cp%d; int main() { cp%d = &c%d; return %d; }", i, i, i, i, i%2)
}

// Run boots the fleet, drives the traffic, and reports. The caller decides
// what to do with Report.Gate().
func Run(opt Options) (*Report, error) {
	opt = opt.withDefaults()
	fmt.Fprintf(opt.Out, "cluster: %d replicas, %d requests (%d%% hot over %d keys), chaos on replica 0, kill/restart=%v\n",
		opt.Replicas, opt.Requests, int(opt.HotRatio*100), opt.HotKeys, opt.KillRestart)

	// Fleet.
	reps := make([]*replicaProc, opt.Replicas)
	for i := range reps {
		chaos := server.ChaosConfig{}
		if i == 0 {
			chaos = opt.Chaos
		}
		rp, err := startReplica("127.0.0.1:0", chaos)
		if err != nil {
			return nil, err
		}
		reps[i] = rp
		defer rp.kill()
	}
	urls := make([]string, len(reps))
	for i, rp := range reps {
		urls[i] = "http://" + rp.addr
	}

	// Gateway: fast probes and a short breaker cooldown so the bench can
	// observe a full open→close cycle inside seconds.
	gw, err := gateway.New(gateway.Options{
		Replicas:         urls,
		ProbeInterval:    100 * time.Millisecond,
		ProbeTimeout:     time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  500 * time.Millisecond,
		Retry: resilience.Policy{
			MaxAttempts: 3,
			Backoff:     resilience.Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		},
	})
	if err != nil {
		return nil, err
	}
	gw.Start()
	defer gw.Stop()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gsrv := &http.Server{Handler: gw.Handler()}
	go gsrv.Serve(gln)
	defer gsrv.Close()

	// The client through the gateway, retries OFF: the gateway must
	// absorb every fault or the bench counts a failure.
	cl := client.New("http://" + gln.Addr().String())
	cl.Retry = &resilience.Policy{MaxAttempts: 1}

	// Deterministic traffic plan.
	rng := rand.New(rand.NewSource(opt.Seed))
	plan := make([]string, opt.Requests)
	for i := range plan {
		if rng.Float64() < opt.HotRatio {
			plan[i] = hotSource(rng.Intn(opt.HotKeys))
		} else {
			plan[i] = coldSource(i)
		}
	}

	var (
		done       atomic.Int64
		failures   atomic.Int64
		recoveries atomic.Int64
		firstFail  atomic.Value
		latMu      sync.Mutex
		latencies  []time.Duration
	)
	fail := func(err error) {
		failures.Add(1)
		firstFail.CompareAndSwap(nil, err.Error())
	}

	// Killer: hard-kill the last replica after a third of the traffic,
	// hold it down long enough for probes to trip its breaker, restart it
	// as a fresh (cold-cache) instance.
	killerDone := make(chan struct{})
	victim := len(reps) - 1
	if opt.KillRestart {
		go func() {
			defer close(killerDone)
			for done.Load() < int64(opt.Requests/3) {
				time.Sleep(10 * time.Millisecond)
			}
			fmt.Fprintf(opt.Out, "cluster: killing replica %d (%s)\n", victim, reps[victim].addr)
			reps[victim].kill()
			time.Sleep(800 * time.Millisecond) // probes fail, breaker opens, traffic fails over
			rp, err := startReplica(reps[victim].addr, reps[victim].chaos)
			if err != nil {
				fail(fmt.Errorf("restart replica %d: %w", victim, err))
				return
			}
			reps[victim] = rp
			fmt.Fprintf(opt.Out, "cluster: restarted replica %d\n", victim)
		}()
	} else {
		close(killerDone)
	}

	// Traffic.
	ctx := context.Background()
	start := time.Now()
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				src := plan[i]
				t0 := time.Now()
				resp, err := cl.Analyze(ctx, server.AnalyzeRequest{Source: src})
				if err != nil {
					fail(fmt.Errorf("analyze #%d: %w", i, err))
					done.Add(1)
					continue
				}
				latMu.Lock()
				latencies = append(latencies, time.Since(t0))
				latMu.Unlock()
				// Every fifth request also reads back through the query
				// path. A 404 can be legitimate — the only replica caching
				// this id may have just been killed — and the recovery a
				// real client would do is re-analyze, then re-query.
				if i%5 == 0 {
					if _, err := cl.Diagnostics(ctx, resp.ID, []string{"race"}); err != nil {
						var apiErr *client.APIError
						if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
							if resp, err = cl.Analyze(ctx, server.AnalyzeRequest{Source: src}); err == nil {
								_, err = cl.Diagnostics(ctx, resp.ID, []string{"race"})
							}
							if err != nil {
								fail(fmt.Errorf("query recovery #%d: %w", i, err))
							} else {
								recoveries.Add(1)
							}
						} else {
							fail(fmt.Errorf("query #%d: %w", i, err))
						}
					}
				}
				done.Add(1)
			}
		}()
	}
	for i := 0; i < opt.Requests; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	<-killerDone
	elapsed := time.Since(start)

	// The breaker cycle outlives the traffic: probes keep running, so wait
	// (bounded) for the restarted replica's breaker to walk back closed.
	if opt.KillRestart {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			st := gw.Stats()
			if st.BreakerOpens > 0 && st.BreakerCloses > 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	st := gw.Stats()
	rep := &Report{
		Requests:        opt.Requests,
		Failures:        int(failures.Load()),
		QueryRecoveries: int(recoveries.Load()),
		Retries:         st.Retries,
		Hedges:          st.Hedges,
		HedgeWins:       st.HedgeWins,
		Failovers:       st.Failovers,
		CacheHits:       st.CacheHits,
		BreakerOpens:    st.BreakerOpens,
		BreakerCloses:   st.BreakerCloses,
		HitRatio:        float64(st.CacheHits) / float64(opt.Requests),
		Elapsed:         elapsed,
		AnalyzeSamples:  len(latencies),
	}
	ps := harness.Percentiles(latencies, 0.50, 0.90)
	rep.AnalyzeP50, rep.AnalyzeP90 = ps[0], ps[1]
	if s, ok := firstFail.Load().(string); ok {
		rep.FirstFailure = s
	}

	// Chaos evidence straight from the chaotic replica's own exposition.
	if text, err := client.New(urls[0]).Metrics(ctx); err == nil {
		rep.ChaosInjected = metrics.PromSum(metrics.ParsePromText(text), "fsamd_chaos_injected_total")
	}
	return rep, nil
}
