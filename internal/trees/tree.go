// Package trees builds the communication trees ADAPT plugs its collectives
// into (paper §2.2.4, §3.2.1): chain, k-ary, binary, binomial, k-nomial and
// flat trees, plus the single-communicator topology-aware tree that glues
// per-hardware-level sub-trees through leader processes.
package trees

import "fmt"

// Tree is a rooted spanning tree over ranks [0, Size). For a broadcast,
// data flows root → leaves; a reduce uses the same tree with flow reversed.
// Children orderings are significant: collectives start transfers in child
// order, and the topology-aware builder puts slower-lane children first so
// their transfers start as early as possible.
type Tree struct {
	Root     int
	Parent   []int   // Parent[r] = parent of rank r; -1 for the root
	Children [][]int // Children[r] = ordered children of rank r
}

// Size returns the number of ranks spanned by the tree.
func (t *Tree) Size() int { return len(t.Parent) }

// IsLeaf reports whether rank r has no children.
func (t *Tree) IsLeaf(r int) bool { return len(t.Children[r]) == 0 }

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, t.Size())
	max := 0
	var walk func(r int)
	walk = func(r int) {
		for _, c := range t.Children[r] {
			depth[c] = depth[r] + 1
			if depth[c] > max {
				max = depth[c]
			}
			walk(c)
		}
	}
	walk(t.Root)
	return max
}

// MaxDegree returns the largest child count of any rank.
func (t *Tree) MaxDegree() int {
	max := 0
	for _, cs := range t.Children {
		if len(cs) > max {
			max = len(cs)
		}
	}
	return max
}

// Validate checks the spanning-tree invariants: exactly one root, Parent
// and Children mutually consistent, every rank reachable from the root
// exactly once (spanning and acyclic).
func (t *Tree) Validate() error {
	n := t.Size()
	if n == 0 {
		return fmt.Errorf("trees: empty tree")
	}
	if len(t.Children) != n {
		return fmt.Errorf("trees: Parent has %d entries but Children has %d", n, len(t.Children))
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("trees: root %d out of range [0,%d)", t.Root, n)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("trees: root %d has parent %d, want -1", t.Root, t.Parent[t.Root])
	}
	for r := 0; r < n; r++ {
		if r != t.Root && (t.Parent[r] < 0 || t.Parent[r] >= n) {
			return fmt.Errorf("trees: rank %d has parent %d out of range", r, t.Parent[r])
		}
		seen := map[int]bool{}
		for _, c := range t.Children[r] {
			if c < 0 || c >= n {
				return fmt.Errorf("trees: rank %d has child %d out of range", r, c)
			}
			if seen[c] {
				return fmt.Errorf("trees: rank %d lists child %d twice", r, c)
			}
			seen[c] = true
			if t.Parent[c] != r {
				return fmt.Errorf("trees: rank %d lists child %d whose parent is %d", r, c, t.Parent[c])
			}
		}
	}
	// Reachability (also proves acyclicity given the consistency above).
	visited := make([]bool, n)
	stack := []int{t.Root}
	count := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[r] {
			return fmt.Errorf("trees: rank %d visited twice (cycle)", r)
		}
		visited[r] = true
		count++
		stack = append(stack, t.Children[r]...)
	}
	if count != n {
		return fmt.Errorf("trees: only %d of %d ranks reachable from root", count, n)
	}
	return nil
}

func (t *Tree) String() string {
	return fmt.Sprintf("Tree{root=%d size=%d depth=%d maxdeg=%d}",
		t.Root, t.Size(), t.Depth(), t.MaxDegree())
}

// shift maps a virtual tree rooted at vrank 0 onto actual ranks so that
// the actual root is `root`: actual = (virtual + root) mod size.
func shift(size, root, vrank int) int { return (vrank + root) % size }
