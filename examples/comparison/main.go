// Comparison: run FSAM and the NONSPARSE baseline side by side on one of
// the generated Table 1 workloads and report the time/memory gap — a
// single-program slice of the paper's Table 2.
//
// Run with: go run ./examples/comparison [benchmark] [scale]
// (defaults: bodytrack, scale 3)
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	fsam "repro"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	name := "bodytrack"
	scale := 3
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	if len(os.Args) > 2 {
		if v, err := strconv.Atoi(os.Args[2]); err == nil {
			scale = v
		}
	}

	src, err := workload.Generate(name, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark %s at scale %d: %d lines of MiniC\n\n",
		name, scale, workload.LOC(src))

	prog, err := pipeline.Compile(name, src)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	a := fsam.AnalyzeProgram(prog, fsam.Config{})
	fsamTime := time.Since(t0)
	fmt.Printf("FSAM:      %10.3fs  %8.2f MB  (%d def-use edges, %d threads)\n",
		fsamTime.Seconds(), float64(a.Stats.Bytes)/1e6,
		a.Stats.DefUseEdges, a.Stats.Threads)

	prog2, err := pipeline.Compile(name, src)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	t0 = time.Now()
	b, err := fsam.AnalyzeProgramCtx(ctx, prog2, fsam.Config{Engine: "nonsparse", NoDegrade: true})
	nsTime := time.Since(t0)
	if pipeline.ErrCancelled(err) {
		fmt.Printf("NONSPARSE: out of time (>5m)\n")
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NONSPARSE: %10.3fs  %8.2f MB  (%d node transfers)\n",
		nsTime.Seconds(), float64(b.Stats.Bytes)/1e6, b.Stats.Iterations)

	fmt.Printf("\nFSAM is %.1fx faster and uses %.1fx less memory on this input\n",
		nsTime.Seconds()/fsamTime.Seconds(),
		float64(b.Stats.Bytes)/float64(a.Stats.Bytes))
	fmt.Println("(paper Table 2 average: 12x faster, 28x less memory)")
}
