// Command refwork is the benchmark's fixed reference computation: it
// builds a random graph of 100k nodes, walks it with a map-backed visited
// set, and sorts a digest of what it saw. The benchmark times it as a
// separate process around every program process to measure how fast the
// host is running (see hostSpeed). It must never change, or scaled times
// stop being comparable across commits.
package main

import (
	"fmt"
	"math/rand"
	"sort"
)

type node struct {
	next []*node
	val  int
}

func walk() int {
	r := rand.New(rand.NewSource(1))
	nodes := make([]*node, 100000)
	for i := range nodes {
		nodes[i] = &node{val: r.Intn(1000)}
	}
	for _, n := range nodes {
		for k := 0; k < 4; k++ {
			n.next = append(n.next, nodes[r.Intn(len(nodes))])
		}
	}
	counts := map[int]int{}
	seen := map[*node]bool{}
	stack := []*node{nodes[0]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		counts[n.val]++
		stack = append(stack, n.next...)
	}
	xs := make([]int, 0, len(counts))
	for k, v := range counts {
		xs = append(xs, k*v)
	}
	sort.Ints(xs)
	return len(xs)
}

func main() { fmt.Println(walk()) }
