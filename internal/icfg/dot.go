package icfg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDot renders the ICFG in Graphviz DOT format: one cluster per
// function, intra edges solid, call/return edges dashed blue, fork edges
// dashed red.
func (g *Graph) WriteDot(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph icfg {\n")
	b.WriteString("  node [fontname=\"monospace\", fontsize=10, shape=box];\n")

	esc := func(s string) string {
		s = strings.ReplaceAll(s, "\\", "\\\\")
		return strings.ReplaceAll(s, "\"", "\\\"")
	}

	for _, f := range g.Prog.Funcs {
		lo, hi := g.NodeRange(f)
		fmt.Fprintf(&b, "  subgraph \"cluster_%s\" {\n", esc(f.Name))
		fmt.Fprintf(&b, "    label=\"%s\";\n", esc(f.Name))
		for _, n := range g.Nodes[lo:hi] {
			fmt.Fprintf(&b, "    n%d [label=\"%s\"];\n", n.ID, esc(n.String()))
		}
		b.WriteString("  }\n")
	}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			style, color := "solid", "black"
			switch e.Kind {
			case ECall, ERet:
				style, color = "dashed", "blue"
			case EForkCall, EForkRet:
				style, color = "dashed", "red"
			}
			fmt.Fprintf(&b, "  n%d -> n%d [style=%s, color=%s];\n",
				n.ID, e.To.ID, style, color)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
