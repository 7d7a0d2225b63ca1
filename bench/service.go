package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	fsam "repro"
	"repro/bench/trace"
	"repro/internal/harness"
	"repro/internal/server"
)

const (
	// svcRate is the fixed open-loop arrival rate in requests per second,
	// a fifth to a sixth of the capacity -calibrate measured (160–180 requests/s
	// back to back over two connections on a 2-vCPU machine). At half of
	// capacity, queueing behind fsamd's garbage-collection stalls moved
	// the per-run medians by a quarter from run to run. It is a constant
	// so that a faster or slower program changes latency, not the offered
	// load.
	svcRate = 30.0
	// svcConns bounds the client's concurrent connections.
	svcConns = 2
	// svcDeadline bounds one request.
	svcDeadline = 30 * time.Second
	// editBase and fillBase keep edited constants clear of every generated
	// one and of each other.
	editBase = 1000000
	fillBase = 2 * editBase
	// maxFillBatches bounds the cache fill (fsamd's default bound of 128
	// entries fills in 12).
	maxFillBatches = 40
	// svcHostSamples is how many reference processes run on each side of
	// the window.
	svcHostSamples = 10
	// svcElasticity is how far service latency moves with the host's speed.
	// Much of a 1–2 ms hit or query is loopback I/O and wake-ups, which
	// track the reference process less than analysis work does: over ten
	// seeds on a host that sped up steadily, the per-class medians moved
	// with the reference to the power 0.3 (points-to) to 1.0 (cold), about
	// 0.6 for their geometric mean. Over three ten-seed campaigns, scaling
	// by the square root left a quartile spread of 7–12% in the per-run
	// latency, against 11–23% unscaled and 14–20% scaled fully.
	svcElasticity = 0.5
)

// svcGlobals are the globals the points-to queries ask about.
var svcGlobals = []string{"shared_out", "p0", "p1"}

// Request classes of the mix.
const (
	classHit         = "hit"         // repeat analyze of a resident program
	classCold        = "cold"        // analyze of a uniquely edited program
	classIso         = "iso"         // base+patch delta, constant edit
	classSemantic    = "semantic"    // base+patch delta, pointer assignment added
	classPointsTo    = "pointsto"    // GET /v1/pointsto on a resident id
	classDiagnostics = "diagnostics" // GET /v1/diagnostics on a resident id
)

// svcOp is one scheduled request.
type svcOp struct {
	due    time.Duration // offset from the start of the window
	class  string
	prog   int // index into the resident program set
	global string
	nonce  int
}

// svcMix is the request mix: 40% hits, 20% cold, 25% deltas (3 iso : 1
// semantic) and 15% queries (half points-to, half diagnostics).
var svcMix = []struct {
	class string
	share float64
}{
	{classHit, 0.40}, {classCold, 0.20}, {classIso, 0.1875}, {classSemantic, 0.0625},
	{classPointsTo, 0.075}, {classDiagnostics, 0.075},
}

// schedule lays out the window's requests. Their number (rate × window)
// and composition are fixed: each class gets its share, spread evenly over
// the programs (and points-to queries over the globals). The seed draws
// only the order and the arrival times, sorted uniform draws over the
// window, which are Poisson arrivals at the rate given their count. So
// every seed offers the same work; drawing each request's class and
// program independently moved the per-run latency by more.
func schedule(seed int64, window time.Duration, rate float64, nprog int) []svcOp {
	r := rand.New(rand.NewSource(seed))
	n := int(rate * window.Seconds())
	ops := make([]svcOp, 0, n)
	for _, m := range svcMix {
		for k := 0; k < int(math.Round(m.share*float64(n))); k++ {
			op := svcOp{class: m.class, prog: k % nprog}
			if m.class == classPointsTo {
				op.global = svcGlobals[k/nprog%len(svcGlobals)]
			}
			ops = append(ops, op)
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	due := make([]float64, len(ops))
	for i := range due {
		due[i] = r.Float64() * window.Seconds()
	}
	sort.Float64s(due)
	for i := range ops {
		ops[i].due = time.Duration(due[i] * float64(time.Second))
		ops[i].nonce = editBase + 1 + i
	}
	return ops
}

// daemon is the fsamd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	http *http.Client
}

// addrWriter receives fsamd's stdout and reports the listen address from
// its first line.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sent {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.sent = true
			w.ch <- strings.TrimPrefix(string(w.buf[:i]), "fsamd: listening on ")
		}
	}
	return len(p), nil
}

// startDaemon launches fsamd with its default flags (a free port, request
// logs off) and waits until /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	aw := &addrWriter{ch: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet")
	cmd.Stdout, cmd.Stderr = aw, os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, http: &http.Client{
		Timeout: svcDeadline,
		Transport: &http.Transport{
			MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns, DisableCompression: true,
		},
	}}
	select {
	case addr := <-aw.ch:
		d.base = "http://" + addr
	case <-time.After(svcDeadline):
		d.stop()
		return nil, fmt.Errorf("fsamd printed no listen address within %s", svcDeadline)
	}
	for deadline := time.Now().Add(svcDeadline); ; time.Sleep(5 * time.Millisecond) {
		resp, err := d.http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("fsamd not ready within %s", svcDeadline)
		}
	}
}

// stop drains fsamd with SIGTERM, waits for it to exit, and returns its
// peak resident set size.
func (d *daemon) stop() (rssKiB int64, err error) {
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(2 * svcDeadline):
		d.cmd.Process.Kill()
		err = fmt.Errorf("fsamd did not drain; killed: %v", <-done)
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKiB = ru.Maxrss
	}
	return rssKiB, err
}

// call performs one HTTP request and reads the whole response.
func (d *daemon) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) metrics() (map[string]float64, error) {
	code, b, err := d.call(http.MethodGet, "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/metrics: HTTP %d", code)
	}
	return harness.ParsePromText(string(b)), err
}

// resident is a program fsamd holds in its cache for the whole run.
type resident struct {
	in      input
	body    []byte // analyze request for the unedited source
	id      string
	progKey string
}

// svcRun is one service_mix run's client state.
type svcRun struct {
	c   *runConfig
	d   *daemon
	res []*resident

	mu         sync.Mutex
	recoveries int
}

// projection is the part of an analyze response that must not depend on
// timing or on which edit produced it: engine, tier and interned-set
// counts. Cold runs and iso deltas of a program share the unedited
// program's projection.
func projection(r *server.AnalyzeResponse) []byte {
	return []byte(fmt.Sprintf("engine=%s precision=%s exit=%d degraded=%q unique_sets=%d set_refs=%d\n",
		r.Engine, r.Precision, r.ExitCode, r.Degraded, r.Stats.FSAMUniqueSets, r.Stats.FSAMSetRefs))
}

func analyzeBody(name, src, base string) []byte {
	b, err := json.Marshal(server.AnalyzeRequest{Name: name, Source: src, Base: base})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// analyze posts an analyze request and checks the response's projection
// under key and, for deltas, its tier.
func (s *svcRun) analyze(body []byte, key, tier string) (*server.AnalyzeResponse, int, error) {
	code, b, err := s.d.call(http.MethodPost, "/v1/analyze", body)
	if err != nil || code != http.StatusOK {
		return nil, code, fmt.Errorf("%s: HTTP %d: %v %s", key, code, err, bytes.TrimSpace(b))
	}
	var r server.AnalyzeResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, code, fmt.Errorf("%s: %w", key, err)
	}
	got := ""
	if r.Delta != nil {
		got = r.Delta.Tier
	}
	if got != tier {
		return &r, code, fmt.Errorf("%s: delta tier %q, want %q", key, got, tier)
	}
	return &r, code, s.c.exp.check(key, code, trace.Digest(projection(&r)))
}

// query GETs path and checks the whole body under key.
func (s *svcRun) query(path, key string) (int, error) {
	code, b, err := s.d.call(http.MethodGet, path, nil)
	if err != nil {
		return code, fmt.Errorf("%s: %w", key, err)
	}
	if code != http.StatusOK {
		return code, fmt.Errorf("%s: HTTP %d: %s", key, code, bytes.TrimSpace(b))
	}
	return code, s.c.exp.check(key, code, trace.Digest(b))
}

// keys names the expected digests of a resident program's analyze
// responses (unedited and iso edits share one), semantic-edit responses
// and diagnostics.
func (r *resident) keys() (analyze, semantic, diagnostics string) {
	return "service_mix/analyze/" + r.in.Key, "service_mix/semantic/" + r.in.Key, "service_mix/diagnostics/" + r.in.Key
}

func (r *resident) pointsToKey(global string) string {
	return "service_mix/pointsto/" + r.in.Key + "/" + global
}

func (r *resident) pointsToPath(global string) string {
	return "/v1/pointsto?id=" + url.QueryEscape(r.id) + "&global=" + url.QueryEscape(global)
}

func (r *resident) diagnosticsPath() string { return "/v1/diagnostics?id=" + url.QueryEscape(r.id) }

// warm analyzes every resident program and asks every query the mix will
// ask, so the cache and the memoized checker runs are filled before
// timing. In record mode it also records each program's semantic-edit
// projection.
func (s *svcRun) warm(t *tally) {
	for _, r := range s.res {
		aKey, sKey, dKey := r.keys()
		resp, _, err := s.analyze(r.body, aKey, "")
		t.add(err)
		if err != nil {
			continue
		}
		r.id, r.progKey = resp.ID, resp.ProgKey
		_, err = s.query(r.diagnosticsPath(), dKey)
		t.add(err)
		for _, g := range svcGlobals {
			_, err = s.query(r.pointsToPath(g), r.pointsToKey(g))
			t.add(err)
		}
		if s.c.exp.record {
			_, _, err = s.analyze(analyzeBody(r.in.File, pointerInsert(constBump(r.in.Src, editBase)), r.progKey), sKey, fsam.DeltaSemantic)
			t.add(err)
		}
	}
	if !s.c.tiny {
		s.fill(t)
	}
}

// fill brings the result cache to its bound with uniquely edited
// programs, so the window runs against the full cache of a long-running
// fsamd rather than one still filling; the first eviction shows the bound
// was reached. Residents are re-requested after every batch so the LRU
// keeps them.
func (s *svcRun) fill(t *tally) {
	for batch := 0; batch < maxFillBatches; batch++ {
		m, err := s.d.metrics()
		if err != nil || m["fsamd_cache_evictions_total"] > 0 {
			t.add(err)
			return
		}
		for k, r := range s.res {
			aKey, _, _ := r.keys()
			_, _, err := s.analyze(analyzeBody(r.in.File, constBump(r.in.Src, fillBase+batch*len(s.res)+k), ""), aKey, "")
			t.add(err)
		}
		for _, r := range s.res {
			aKey, _, _ := r.keys()
			_, _, err := s.analyze(r.body, aKey, "")
			t.add(err)
		}
	}
	t.add(fmt.Errorf("fsamd evicted nothing after %d batches of edits", maxFillBatches))
}

// reanalyze restores an evicted resident program, the documented answer to
// a 404 on a base or an id.
func (s *svcRun) reanalyze(r *resident) error {
	aKey, _, _ := r.keys()
	_, _, err := s.analyze(r.body, aKey, "")
	s.mu.Lock()
	s.recoveries++
	s.mu.Unlock()
	return err
}

// opResult is one completed request.
type opResult struct {
	latency time.Duration // from the due time to the last response byte
	lag     time.Duration // how late the generator issued it
	err     error
}

// do executes one scheduled request, with a body prepared beforehand.
func (s *svcRun) do(op svcOp, body []byte) error {
	r := s.res[op.prog]
	aKey, sKey, dKey := r.keys()
	for attempt := 0; ; attempt++ {
		var (
			code int
			err  error
		)
		switch op.class {
		case classHit, classCold:
			_, code, err = s.analyze(body, aKey, "")
		case classIso:
			_, code, err = s.analyze(body, aKey, fsam.DeltaIso)
		case classSemantic:
			_, code, err = s.analyze(body, sKey, fsam.DeltaSemantic)
		case classPointsTo:
			code, err = s.query(r.pointsToPath(op.global), r.pointsToKey(op.global))
		case classDiagnostics:
			code, err = s.query(r.diagnosticsPath(), dKey)
		}
		if code != http.StatusNotFound || attempt > 0 || op.class == classHit || op.class == classCold {
			return err
		}
		if err := s.reanalyze(r); err != nil {
			return err
		}
	}
}

// body prepares op's request body (nil for queries).
func (s *svcRun) body(op svcOp) []byte {
	r := s.res[op.prog]
	switch op.class {
	case classHit:
		return r.body
	case classCold:
		return analyzeBody(r.in.File, constBump(r.in.Src, op.nonce), "")
	case classIso:
		return analyzeBody(r.in.File, constBump(r.in.Src, op.nonce), r.progKey)
	case classSemantic:
		return analyzeBody(r.in.File, pointerInsert(constBump(r.in.Src, op.nonce)), r.progKey)
	}
	return nil
}

// load runs the open loop: a generator issues each request at its due
// time onto a queue that svcConns workers drain, and each request is
// timed from its due time, so a stall also charges the requests queued
// behind it. With rec set, each request is a client-side span.
func (s *svcRun) load(ops []svcOp, rec *trace.Recorder) []opResult {
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		bodies[i] = s.body(op)
	}
	out := make([]opResult, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < svcConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				op := ops[i]
				var span *trace.Span
				if rec != nil {
					span = rec.Start(fmt.Sprintf("service_mix/%d", i), nil, op.class)
				}
				out[i].err = s.do(op, bodies[i])
				out[i].latency = time.Since(start) - op.due
				if span != nil {
					rec.End(span)
					span.Set("queue_ms", ms(out[i].latency-span.Duration()))
				}
			}
		}()
	}
	for i, op := range ops {
		if wait := op.due - time.Since(start); wait > 0 && !s.c.calibrate {
			time.Sleep(wait)
		}
		out[i].lag = max(time.Since(start)-op.due, 0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// runService measures service_mix: fsamd launch and warm-up (the set-up
// time), the open-loop window, then the interpreter gate (last, for the
// reason runCLI gives). The reference process cannot run inside the window
// without taking CPU from fsamd, so the host's speed is sampled
// svcHostSamples times just before the window and as many just after it,
// while fsamd idles.
func runService(c *runConfig) (*Result, error) {
	ins := serviceInputs()
	res := newResult()
	var rec *trace.Recorder
	if c.traced {
		rec = trace.New()
	}
	s := &svcRun{c: c}
	for _, in := range ins {
		s.res = append(s.res, &resident{in: in, body: analyzeBody(in.File, in.Src, "")})
	}
	ops := schedule(c.seed, c.seconds, svcRate, len(ins))
	var t tally

	t0 := time.Now()
	d, err := startDaemon(filepath.Join(c.binDir(), "fsamd"))
	if err != nil {
		return nil, err
	}
	s.d = d
	s.warm(&t)
	setup := time.Since(t0)

	host := newHostSpeed(c, svcElasticity)
	for k := 0; k < svcHostSamples; k++ {
		host.sample()
	}
	before, err := d.metrics()
	var results []opResult
	var after map[string]float64
	if err == nil {
		w0 := time.Now()
		results = s.load(ops, rec)
		if c.calibrate {
			fmt.Fprintf(os.Stderr, "bench: capacity %.1f requests/s back to back over %d connections\n",
				float64(len(ops))/time.Since(w0).Seconds(), svcConns)
		}
		after, err = d.metrics()
	}
	for k := 0; k < svcHostSamples; k++ {
		host.sample()
	}
	rss, stopErr := d.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	if err := gate(ins, c.seed); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		res.Correct = false
	}

	var all, lags []float64
	byClass := map[string][]float64{}
	cells := map[string][]float64{} // class and program
	for i, r := range results {
		t.add(r.err)
		lags = append(lags, ms(r.lag))
		if r.err == nil {
			op := ops[i]
			all = append(all, ms(r.latency))
			byClass[op.class] = append(byClass[op.class], ms(r.latency))
			cell := op.class + "/" + s.res[op.prog].in.Key
			cells[cell] = append(cells[cell], ms(r.latency))
		}
	}
	var meds []float64
	for _, xs := range cells {
		meds = append(meds, median(xs))
	}
	fmt.Fprintf(os.Stderr, "bench: service_mix %d requests at %.0f/s: p50 %.2f ms, tail %.2f ms (10 beyond); %d class/program cells, geomean of medians %.2f ms\n",
		len(all), svcRate, median(all), tail(all), len(cells), geomean(meds))
	for _, m := range svcMix {
		xs := byClass[m.class]
		fmt.Fprintf(os.Stderr, "bench: service_mix %-11s n=%3d  median %8.2f ms  p90 %8.2f ms\n", m.class, len(xs), median(xs), quantile(xs, 0.9))
	}
	res.tally(t)

	if !c.traced {
		res.set("latency_ms", "ms", geomean(meds))
		res.set("peak_rss_mb", "MB", float64(rss)/1024)
		res.set("setup_s", "s", setup.Seconds())
		return res, host.scale(res)
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := delta("fsamd_cache_hits_total"), delta("fsamd_cache_misses_total")
	res.set("server.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	fh, fm := delta("fsamd_facts_hits_total"), delta("fsamd_facts_misses_total")
	res.set("facts.hit_ratio", "ratio", ratio(fh, fh+fm))
	res.set("server.analyses", "count", delta("fsamd_analyses_total"))
	res.set("server.dedup", "count", delta("fsamd_dedup_total"))
	res.set("server.shed", "count", harness.PromSum(after, "fsamd_shed_total")-harness.PromSum(before, "fsamd_shed_total"))
	for _, tier := range []string{fsam.DeltaNoop, fsam.DeltaIso, fsam.DeltaSemantic} {
		res.set("delta."+tier, "count", delta(fmt.Sprintf("fsamd_delta_total{tier=%q}", tier)))
	}
	for _, p := range serverPhases {
		res.set("server.phase."+p+"_s", "s", delta(fmt.Sprintf("fsamd_phase_seconds_total{phase=%q}", p)))
	}
	res.set("server.handler_p50_ms", "ms", 1000*histQuantile(before, after, "fsamd_request_duration_seconds", 0.5))
	res.set("svc.gen_lag_p99_ms", "ms", quantile(lags, 0.99))
	res.set("svc.requests", "count", float64(len(all)))
	res.set("svc.p50_ms", "ms", median(all))
	res.set("svc.tail_ms", "ms", tail(all))
	res.set("svc.hit_p50_ms", "ms", median(byClass[classHit]))
	res.set("svc.cold_p50_ms", "ms", median(byClass[classCold]))
	res.set("svc.delta_p50_ms", "ms", median(append(byClass[classIso], byClass[classSemantic]...)))
	res.set("svc.query_p50_ms", "ms", median(append(byClass[classPointsTo], byClass[classDiagnostics]...)))
	res.set("svc.recoveries", "count", float64(s.recoveries))

	deltaMS, err := deltaLayer(rec, ins)
	if err != nil {
		return nil, err
	}
	res.set("delta.ms", "ms", deltaMS)
	if err := host.scale(res); err != nil {
		return nil, err
	}
	return res, c.writeSpans(rec, "service_mix")
}

// deltaLayer times fsam.AnalyzeDeltaCtx in-process on each resident
// program's iso and semantic edits: the sum over programs and tiers of
// the median of tracedRounds calls.
func deltaLayer(rec *trace.Recorder, ins []input) (float64, error) {
	ctx := context.Background()
	total := 0.0
	for _, in := range ins {
		base, err := fsam.AnalyzeSourceCtx(ctx, in.File, in.Src, fsam.Config{})
		if err != nil {
			return 0, err
		}
		edits := map[string]string{
			fsam.DeltaIso:      constBump(in.Src, editBase),
			fsam.DeltaSemantic: pointerInsert(constBump(in.Src, editBase)),
		}
		for tier, src := range edits {
			var xs []float64
			for round := 1; round <= tracedRounds; round++ {
				s, err := rec.Do(fmt.Sprintf("service_mix/%s/%d", in.Key, round), nil, "delta."+tier, func(*trace.Span) error {
					_, rep, err := fsam.AnalyzeDeltaCtx(ctx, base, in.File, src)
					if err == nil && rep.Tier != tier {
						err = fmt.Errorf("%s: delta tier %s, want %s", in.Key, rep.Tier, tier)
					}
					return err
				})
				if err != nil {
					return 0, err
				}
				xs = append(xs, ms(s.Duration()))
			}
			total += median(xs)
		}
	}
	return total, nil
}

// histQuantile estimates the q-quantile of a Prometheus histogram's
// observations between two scrapes, interpolating linearly inside the
// bucket that holds it.
func histQuantile(before, after map[string]float64, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		pfx := family + `_bucket{le="`
		if !strings.HasPrefix(k, pfx) {
			continue
		}
		le := math.Inf(1)
		if s := strings.TrimSuffix(k[len(pfx):], `"}`); s != "+Inf" {
			fmt.Sscan(s, &le)
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	target, prevLe, prevN := q*total, 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(target-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}
