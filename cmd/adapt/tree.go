package main

// adapt tree prints a topology-aware communication tree: its shape
// statistics and the per-level edge census, showing what the tree
// builders produce on a given machine.
//
//	adapt tree -platform cori -nodes 4 -config topo
//	adapt tree -platform psg -nodes 2 -config chain

import (
	"fmt"
	"io"

	"adapt/internal/hwloc"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/trees"
)

func runTree(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("tree", stderr)
	platform := fs.String("platform", "cori", "platform profile")
	nodes := fs.Int("nodes", 4, "number of nodes")
	config := fs.String("config", "topo", "topo (ADAPT default), reduce or chain")
	root := fs.Int("root", 0, "root rank")
	if fs.Parse(args) != nil {
		return 2
	}

	p, err := netmodel.ByName(*platform, *nodes)
	if err != nil {
		return failed(stderr, "tree", err)
	}
	var cfg trees.TopoConfig
	switch *config {
	case "topo":
		cfg = libmodel.AdaptDefaultConfig()
	case "reduce":
		cfg = libmodel.AdaptReduceConfig()
	case "chain":
		cfg = trees.ChainConfig()
	default:
		return failed(stderr, "tree", fmt.Errorf("unknown config %q", *config))
	}
	t := trees.Topology(p.Topo, *root, cfg)
	fmt.Fprintf(stdout, "machine: %s\n", p.Topo)
	fmt.Fprintf(stdout, "config: inter-node=%s inter-socket=%s intra-socket=%s\n",
		cfg.InterNode.Name, cfg.InterSocket.Name, cfg.IntraSocket.Name)
	leaves := 0
	for r := 0; r < t.Size(); r++ {
		if t.IsLeaf(r) {
			leaves++
		}
	}
	fmt.Fprintf(stdout, "  %s  leaves=%d interior=%d\n", t, leaves, t.Size()-leaves)

	counts := map[hwloc.Level]int{}
	for r := 0; r < t.Size(); r++ {
		if parent := t.Parent[r]; parent != -1 {
			counts[p.Topo.LevelBetween(parent, r)]++
		}
	}
	fmt.Fprintln(stdout, "  edges by lane:")
	for _, l := range []hwloc.Level{hwloc.LevelCore, hwloc.LevelSocket, hwloc.LevelNode} {
		fmt.Fprintf(stdout, "    %-13s %d\n", l, counts[l])
	}
	return 0
}
