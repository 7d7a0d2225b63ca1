package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/bench/densegen"
	"repro/internal/workload"
)

// input is one program a workload analyzes.
type input struct {
	// Key names the input in expected digests and per-input rows, e.g.
	// "x264@16" or "dense3".
	Key string
	// File is the file name the program is analyzed under; it appears in
	// positions, so it is part of what the digests pin.
	File string
	Src  string
}

// suiteInputs is the paper's Table 1 suite at one scale.
func suiteInputs(scale int) []input {
	var out []input
	for _, s := range workload.Suite {
		out = append(out, input{
			Key:  fmt.Sprintf("%s@%d", s.Name, scale),
			File: s.Name + ".mc",
			Src:  workload.GenerateSpec(s, scale),
		})
	}
	return out
}

// denseInputs is the thread_dense program set: densegen seeds 1..n. The
// set is fixed rather than drawn from the benchmark seed, so every seed
// measures the same work and only the order changes.
func denseInputs(n int) []input {
	var out []input
	for i := 1; i <= n; i++ {
		out = append(out, input{
			Key:  fmt.Sprintf("dense%d", i),
			File: fmt.Sprintf("dense%d.mc", i),
			Src:  densegen.Generate(int64(i)),
		})
	}
	return out
}

// serviceInputs is service_mix's resident program set: the five smaller
// suite programs at scale 2 and the five larger ones at scale 1, so cold
// runs stay in a narrow 10–60 ms band instead of one program dominating
// the tail.
func serviceInputs() []input {
	var out []input
	for i, s := range workload.Suite {
		scale := 2
		if i >= len(workload.Suite)/2 {
			scale = 1
		}
		out = append(out, input{
			Key:  fmt.Sprintf("%s@%d", s.Name, scale),
			File: s.Name + ".mc",
			Src:  workload.GenerateSpec(s, scale),
		})
	}
	return out
}

// writeInputs writes the inputs into dir, replacing what was there.
func writeInputs(dir string, ins []input) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, in := range ins {
		if err := os.WriteFile(filepath.Join(dir, in.File), []byte(in.Src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// constBump sets the trailing constant of the first arithmetic filler line
// (`x_acc = x_acc * A + B;`) to v. Constants are invisible to the pointer
// analysis, so the edit keeps the CFG isomorphic (the "iso" delta tier)
// and the results identical, while giving the source a new content
// address.
func constBump(src string, v int) string {
	i := strings.Index(src, "_acc * ")
	if i < 0 {
		panic("constBump: program has no filler line")
	}
	end := i + strings.IndexByte(src[i:], ';')
	plus := strings.LastIndex(src[:end], "+ ")
	return fmt.Sprintf("%s+ %d%s", src[:plus], v, src[end:])
}

// pointerInsert adds one pointer assignment before main's final return: a
// semantic edit that changes the points-to results.
func pointerInsert(src string) string {
	i := strings.LastIndex(src, "\treturn 0;\n}")
	if i < 0 {
		panic("pointerInsert: program has no final return")
	}
	return src[:i] + "\tshared_out = &g0;\n" + src[i:]
}
