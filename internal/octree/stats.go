package octree

import (
	"fmt"
)

// Stats summarizes the shape of a built tree.
type Stats struct {
	Bodies     int // bodies inserted by the last Build
	Nodes      int // allocated nodes (root + 8·groups)
	Groups     int // allocated sibling groups
	Leaves     int // leaf nodes (empty or body-bearing)
	EmptyLeafs int // leaves containing no body
	MaxDepth   int // deepest allocated node
	Chained    int // bodies sharing a leaf beyond its first (max-depth chains; buckets of the key-sorted build)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("octree{bodies: %d, nodes: %d, leaves: %d (%d empty), maxDepth: %d, chained: %d}",
		s.Bodies, s.Nodes, s.Leaves, s.EmptyLeafs, s.MaxDepth, s.Chained)
}

// Stats walks the allocated nodes and returns shape statistics.
func (t *Tree) Stats() Stats {
	st := Stats{Bodies: t.nBodies, Nodes: t.NumNodes(), Groups: t.NumGroups()}
	for i := int32(0); i < int32(st.Nodes); i++ {
		tok := t.child[i]
		if tok >= 0 {
			continue
		}
		st.Leaves++
		if tok == TokenEmpty {
			st.EmptyLeafs++
		} else {
			chain := 0
			for b := tokenBody(tok); b >= 0; b = t.next[b] {
				chain++
			}
			if chain > 1 {
				st.Chained += chain - 1
			}
		}
		if d := t.depthOf(i); d > st.MaxDepth {
			st.MaxDepth = d
		}
	}
	return st
}

// CheckInvariants exhaustively verifies the structural invariants the
// algorithms rely on. It is exported for the package's property tests and
// for downstream debugging; it is O(nodes + bodies) and not meant for hot
// paths. It returns the first violation found.
//
// Invariants checked:
//  1. no node is left in the Locked state;
//  2. every child offset points into the allocated range and is strictly
//     greater than its parent's index (the stackless-traversal invariant);
//  3. every group's parent offset names a node whose child offset is the
//     group's first node (parent/child links agree);
//  4. every body occurs exactly once across all leaf chains;
//  5. group depths equal parent depth + 1.
func (t *Tree) CheckInvariants() error {
	nodes := int32(t.NumNodes())
	seen := make([]bool, t.nBodies)

	for i := int32(0); i < nodes; i++ {
		tok := t.child[i]
		switch {
		case tok == TokenLocked:
			return fmt.Errorf("node %d left locked", i)
		case tok >= 0:
			if tok >= nodes {
				return fmt.Errorf("node %d: child offset %d beyond %d allocated nodes", i, tok, nodes)
			}
			if tok <= i {
				return fmt.Errorf("node %d: child offset %d not greater than parent", i, tok)
			}
			if (tok-1)%8 != 0 {
				return fmt.Errorf("node %d: child offset %d not group-aligned", i, tok)
			}
			g := (tok - 1) / 8
			if t.parent[g] != i {
				return fmt.Errorf("group %d: parent offset %d, expected %d", g, t.parent[g], i)
			}
			if int(t.depth[g]) != t.depthOf(i)+1 && t.depthOf(i)+1 <= 255 {
				return fmt.Errorf("group %d: depth %d, expected %d", g, t.depth[g], t.depthOf(i)+1)
			}
		case tok != TokenEmpty: // body leaf
			for b := tokenBody(tok); b >= 0; b = t.next[b] {
				if int(b) >= t.nBodies {
					return fmt.Errorf("node %d: chain references body %d of %d", i, b, t.nBodies)
				}
				if seen[b] {
					return fmt.Errorf("body %d appears in more than one leaf", b)
				}
				seen[b] = true
			}
		}
	}
	for b, ok := range seen {
		if !ok {
			return fmt.Errorf("body %d not present in any leaf", b)
		}
	}
	return nil
}

// FindLeaf returns the index of the leaf node whose cell covers position
// (x, y, z), following child links from the root exactly as insertion does.
// It returns -1 if the traversal encounters an inconsistency. (The
// key-sorted build assigns cells by quantised key, not by comparing with
// cell centres, so there a body within rounding of a cell face may sit in
// the leaf next to the one this returns.)
func (t *Tree) FindLeaf(x, y, z float64) int32 {
	node := int32(0)
	cx, cy, cz := t.rootCenter.X, t.rootCenter.Y, t.rootCenter.Z
	half := t.rootHalf
	for {
		tok := t.child[node]
		if tok < 0 {
			return node
		}
		oct := int32(0)
		half *= 0.5
		if x >= cx {
			oct |= 4
			cx += half
		} else {
			cx -= half
		}
		if y >= cy {
			oct |= 2
			cy += half
		} else {
			cy -= half
		}
		if z >= cz {
			oct |= 1
			cz += half
		} else {
			cz -= half
		}
		node = tok + oct
		if node >= int32(t.NumNodes()) {
			return -1
		}
	}
}

// LeafBodies returns the ids of the bodies chained at leaf node i (nil for
// an empty or internal node).
func (t *Tree) LeafBodies(i int32) []int32 {
	tok := t.child[i]
	if tok >= 0 || tok == TokenEmpty || tok == TokenLocked {
		return nil
	}
	var out []int32
	for b := tokenBody(tok); b >= 0; b = t.next[b] {
		out = append(out, b)
	}
	return out
}
