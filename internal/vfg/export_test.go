package vfg

import (
	"context"

	"repro/internal/pipeline"
	"repro/internal/threads"
)

// BuildUncompacted builds the def-use graph without collapsing any node:
// every node represents itself and the adjacency is exactly the
// constructed one. It is the compaction tests' oracle.
func BuildUncompacted(model *threads.Model, opt Options) *Graph {
	g, _ := build(context.Background(), model, opt, false)
	return g
}

// NamedOptions is one configuration of the differential tests.
type NamedOptions struct {
	Name string
	Opt  Options
}

// OptionSets returns the differential tests' configurations for b.
func OptionSets(b *pipeline.Base) []NamedOptions {
	out := make([]NamedOptions, len(optionSets))
	for i, set := range optionSets {
		out[i] = NamedOptions{Name: set.name, Opt: set.opt(b)}
	}
	return out
}
