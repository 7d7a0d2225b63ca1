package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// refNominalMS is what one refwork process takes on the nominal host: the
// speed the reported times are scaled to.
const refNominalMS = 100.0

// hostSpeed tracks how fast the host runs during a workload run. The
// machines the benchmark runs on are shared, and their speed drifts by
// tens of percent within minutes: the same fsam process on the same input
// took from 1.0 s to 2.0 s within an hour. A fixed reference process
// (refwork: allocation and pointer chasing under the garbage collector,
// like the analyses) is timed all through the run, and every time the run
// reports is multiplied by (refNominalMS / the reference's median) raised
// to the workload's elasticity: how far its times move with the
// reference's. Scaled times stay in their units: they are what the run
// would have measured on a host where refwork takes refNominalMS.
type hostSpeed struct {
	bin        string
	elasticity float64
	once       bool // take only the first sample (the smoke test's tiny runs)
	samples    []float64
	err        error
}

func newHostSpeed(c *runConfig, elasticity float64) *hostSpeed {
	return &hostSpeed{bin: filepath.Join(c.binDir(), "refwork"), elasticity: elasticity, once: c.tiny}
}

// sample times one reference process.
func (h *hostSpeed) sample() {
	if h.once && len(h.samples) > 0 {
		return
	}
	t0 := time.Now()
	if err := exec.Command(h.bin).Run(); err != nil && h.err == nil {
		h.err = fmt.Errorf("reference process: %w", err)
	}
	h.samples = append(h.samples, ms(time.Since(t0)))
}

// scale multiplies every time metric of res by the run's scale factor.
func (h *hostSpeed) scale(res *Result) error {
	if h.err != nil {
		return h.err
	}
	m := median(h.samples)
	f := math.Pow(refNominalMS/m, h.elasticity)
	fmt.Fprintf(os.Stderr, "bench: reference %.2f ms (median of %d), times scaled by %.4f\n", m, len(h.samples), f)
	for name, v := range res.Metrics {
		if v.Unit == "ms" || v.Unit == "s" {
			res.set(name, v.Unit, v.Value*f)
		}
	}
	return nil
}
