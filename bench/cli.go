package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/bench/trace"
)

const (
	// cliDeadline bounds one program process.
	cliDeadline = 60 * time.Second
	// A round runs each program about repTarget's worth of processes, at
	// most maxReps, judged by its warm-up process. The window fits only a
	// few rounds when some programs take seconds, and a cheap program's
	// median over two or three processes moved by up to a quarter from run
	// to run; with several processes per round every median rests on more.
	repTarget = 250 * time.Millisecond
	maxReps   = 5
)

// reps is how many processes a round runs of a program whose warm-up
// process took d.
func reps(d time.Duration) int {
	return min(maxReps, max(1, int(repTarget/max(d, time.Millisecond))))
}

// cliSpec is a closed-loop workload: one program process at a time over a
// fixed input set, in a seeded order that changes every round.
type cliSpec struct {
	name string
	bin  string   // program binary under the build directory
	args []string // flags before the input file
	// inputs is the measured set; gateInputs the set the interpreter
	// gate checks (tiny selects the smoke-test size).
	inputs     func(tiny bool) []input
	gateInputs func(tiny bool) []input
	// checkers makes the traced run go through the checker layer and the
	// SARIF renderer (the fsamcheck path) instead of the -globals listing.
	checkers bool
	// ladder makes the traced run also time the ladder engines.
	ladder bool
}

// sized returns an input set that is gen(full), or gen(tiny) for the
// smoke test.
func sized(gen func(int) []input, full, tiny int) func(bool) []input {
	return func(t bool) []input {
		if t {
			return gen(tiny)
		}
		return gen(full)
	}
}

var cliWorkloads = []cliSpec{
	{name: "suite_analyze", bin: "fsam", args: []string{"-globals"},
		inputs: sized(suiteInputs, 16, 1), gateInputs: sized(suiteInputs, 1, 1), ladder: true},
	{name: "suite_check", bin: "fsamcheck", args: []string{"-format", "sarif"},
		inputs: sized(suiteInputs, 3, 1), gateInputs: sized(suiteInputs, 1, 1), checkers: true},
	{name: "thread_dense", bin: "fsam", args: []string{"-globals"},
		inputs: sized(denseInputs, 8, 1), gateInputs: sized(denseInputs, 8, 1), ladder: true},
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "bench: FAIL:", err)
	}
}

// buildPrograms builds the program binaries and the reference process once,
// before anything is timed.
func buildPrograms(root, binDir string) error {
	out := binDir + string(filepath.Separator)
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{root, []string{"./cmd/fsam", "./cmd/fsamcheck", "./cmd/fsamd"}},
		{filepath.Join(root, "bench"), []string{"./refwork"}},
	} {
		cmd := exec.Command("go", append([]string{"build", "-o", out}, b.pkgs...)...)
		cmd.Dir = b.dir
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %v in %s: %w", b.pkgs, b.dir, err)
		}
	}
	return nil
}

// procResult is one program process: wall time from start to exit and
// peak resident set size.
type procResult struct {
	wall   time.Duration
	rssKiB int64
}

// cliOp runs one program process on one input and checks its exit code
// and standard output against the stored digest.
func (c *runConfig) cliOp(w cliSpec, dir string, in input) (procResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(c.binDir(), w.bin), append(w.args, in.File)...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	var out bytes.Buffer
	cmd.Stdout = &out
	t0 := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(t0)}
	if ctx.Err() != nil {
		return res, fmt.Errorf("%s %s: no exit within %s", w.bin, in.Key, cliDeadline)
	}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return res, fmt.Errorf("%s %s: %w", w.bin, in.Key, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssKiB = ru.Maxrss
	}
	return res, c.exp.check(w.name+"/"+in.Key, cmd.ProcessState.ExitCode(), trace.Digest(out.Bytes()))
}

// runCLI measures a CLI workload: one untimed warm-up round (its
// processes' summed wall time is the set-up time), timed rounds until the
// window is spent, then the interpreter gate. The gate runs last because
// it analyzes in-process: on Linux a child's peak resident set starts from
// the parent's peak at the moment of exec, so a parent grown by the gate
// would hide every program smaller than it.
func runCLI(c *runConfig, w cliSpec) (*Result, error) {
	ins := w.inputs(c.tiny)
	dir := filepath.Join(c.build, "work", w.name)
	if err := writeInputs(dir, ins); err != nil {
		return nil, err
	}
	res := newResult()
	rng := rand.New(rand.NewSource(c.seed))
	var t tally

	// The reference process runs after each program's processes, so the
	// host's speed is sampled all through the run.
	host := newHostSpeed(c, 1)
	host.sample()
	var setup time.Duration
	warm := make([]time.Duration, len(ins))
	for _, i := range rng.Perm(len(ins)) {
		p, err := c.cliOp(w, dir, ins[i])
		t.add(err)
		setup += p.wall
		warm[i] = p.wall
		host.sample()
	}

	walls := make([][]float64, len(ins))
	rss := make([][]float64, len(ins))
	// Rounds continue while the window is closer to its end after one more
	// round than before it.
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last/2 <= c.seconds; round++ {
		r0 := time.Now()
		for _, i := range rng.Perm(len(ins)) {
			k := reps(warm[i])
			if c.tiny {
				k = 1
			}
			for ; k > 0; k-- {
				p, err := c.cliOp(w, dir, ins[i])
				t.add(err)
				if err == nil {
					walls[i] = append(walls[i], ms(p.wall))
					rss[i] = append(rss[i], float64(p.rssKiB)/1024)
				}
			}
			host.sample()
		}
		last = time.Since(r0)
	}
	if err := gate(w.gateInputs(c.tiny), c.seed); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		res.Correct = false
	}

	// Peak memory is the largest program's: the maximum over programs of
	// each program's median peak resident set.
	var meds []float64
	peak := 0.0
	for i, ws := range walls {
		fmt.Fprintf(os.Stderr, "bench: %-14s %-18s median %9.2f ms  max %9.2f ms  n=%d  rss %.1f MB\n",
			w.name, ins[i].Key, median(ws), maxOf(ws), len(ws), median(rss[i]))
		if len(ws) > 0 {
			meds = append(meds, median(ws))
			peak = max(peak, median(rss[i]))
		}
	}
	res.tally(t)
	res.set("latency_ms", "ms", geomean(meds))
	res.set("peak_rss_mb", "MB", peak)
	res.set("setup_s", "s", setup.Seconds())
	return res, host.scale(res)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
