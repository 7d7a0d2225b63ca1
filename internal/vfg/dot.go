package vfg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the def-use graph in Graphviz DOT format, mirroring the
// SVF implementation's graph dumps. It draws the stored (physical) nodes
// under their physical IDs: a memory definition compaction collapsed
// exists only as a logical ID and is not drawn. Memory-definition nodes
// are boxes (thread-aware edges dashed red, ablation edges dotted),
// [THREAD-VF] hubs red hexagons; loads appear as ellipses.
func (g *Graph) WriteDot(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph defuse {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [fontname=\"monospace\", fontsize=10];\n")

	esc := func(s string) string {
		s = strings.ReplaceAll(s, "\\", "\\\\")
		return strings.ReplaceAll(s, "\"", "\\\"")
	}

	for _, n := range g.Nodes {
		shape := "box"
		color := "black"
		switch n.Kind {
		case MEntryChi, MExitPhi:
			color = "blue"
		case MJoinChi, MCallChi:
			color = "darkgreen"
		case MPhi:
			shape = "diamond"
		case MHub:
			shape, color = "hexagon", "red"
		}
		fmt.Fprintf(&b, "  m%d [shape=%s, color=%s, label=\"%s\"];\n",
			n.ID, shape, color, esc(n.String()))
	}

	loadID := map[string]bool{}
	for _, n := range g.Nodes {
		for _, e := range g.Out[n.ID] {
			style := "solid"
			color := "black"
			if e.ThreadAware {
				style, color = "dashed", "red"
			}
			if e.Ungated {
				style = "dotted"
			}
			if e.ToMem >= 0 {
				fmt.Fprintf(&b, "  m%d -> m%d [style=%s, color=%s];\n",
					n.ID, e.ToMem, style, color)
			} else if e.ToLoad != nil {
				lid := fmt.Sprintf("l%d", e.ToLoad.ID())
				if !loadID[lid] {
					loadID[lid] = true
					fmt.Fprintf(&b, "  %s [shape=ellipse, label=\"%s\"];\n",
						lid, esc(e.ToLoad.String()))
				}
				fmt.Fprintf(&b, "  m%d -> %s [style=%s, color=%s];\n",
					n.ID, lid, style, color)
			}
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
