// Package octree implements the paper's Concurrent Octree strategy
// (Section IV-A): an unbalanced octree whose construction, multipole
// reduction and force traversal are all massively parallel (O(N)
// parallelism) and rely on fine-grained synchronization.
//
// The data structure follows Figure 1 of the paper. Each node stores a
// single 4-byte token in the child array:
//
//	token == TokenEmpty  → leaf containing no body
//	token == TokenLocked → transiently locked by a subdividing thread
//	token <  TokenLocked → leaf containing body (-token - 3)
//	token >= 0           → internal node; token is the index of the first
//	                       of its 8 children (allocated as one sibling group)
//
// Sibling groups additionally store one parent offset and one depth byte
// per group. In the concurrent build children within a group are ordered by
// octant (x-bit<<2 | y-bit<<1 | z-bit), matching the paper; in the
// key-sorted build they are ordered by Hilbert digit, the curve's order.
//
// Nodes are carved out of a pre-reserved pool by a concurrent bump
// allocator (a single atomic counter). Because groups are always allocated
// after their parent node, every child index is strictly greater than its
// parent's, the invariant enabling the stackless depth-first force
// traversal of Figure 3.
//
// Coincident or pathologically clustered bodies would subdivide forever;
// at DefaultMaxDepth the tree instead chains bodies in a per-leaf lock-free list
// (an extension to the paper, which assumes distinct positions).
//
// That is the paper's build, and what Config.KeySorted == false runs.
// With KeySorted the same arrays are filled from the bodies' sorted
// Hilbert keys by counting (sorted.go): no locks, leaves of up to leafBucket
// bodies, moments gathered level by level. It is the build the default
// (flat-layout) simulation uses; the concurrent build is the paper-fidelity
// variant and the oracle the sorted one is tested against.
package octree

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/par"
	"nbody/internal/vec"
	"nbody/internal/walk"
)

// Token values stored in the child array.
const (
	// TokenEmpty marks a leaf containing no body.
	TokenEmpty int32 = -1
	// TokenLocked marks a node currently being subdivided or claimed.
	TokenLocked int32 = -2
)

// bodyToken encodes body id b as a leaf token.
func bodyToken(b int32) int32 { return -b - 3 }

// tokenBody decodes a leaf token into a body id.
func tokenBody(t int32) int32 { return -t - 3 }

// isBody reports whether t encodes a body leaf.
func isBody(t int32) bool { return t <= bodyToken(0) }

// Config selects the tree variants exercised by the ablation benchmarks.
type Config struct {
	// GatherMoments selects the ablation variant of CALCULATEMULTIPOLES
	// in which the last-arriving thread gathers its children's moments
	// with plain loads instead of every thread scattering them with
	// atomic adds (the paper's variant; the default).
	GatherMoments bool
	// GroupSize is the number of consecutive bodies that share one walk
	// and one interaction list in AccelerationsList (0 selects
	// walk.GroupSize). The per-body traversal ignores it.
	GroupSize int
	// KeySorted selects the key-sorted build: Build sorts the bodies
	// along the Hilbert curve of the root cube (permuting the system like
	// the BVH's Hilbert sort does) and constructs the tree from the sorted
	// keys by counting instead of by concurrent insertion. It is a
	// different tree, not a reordering of the same one: a leaf holds up to
	// leafBucket bodies (a contiguous body range), subdivision stops at
	// the 21 levels a 63-bit key resolves (bodies closer than 2⁻²¹ of the
	// root cube share a leaf and are summed exactly), the pool is sized from counts so Build cannot fail,
	// and tree, moments and accelerations are bit-identical for any worker
	// count. GatherMoments is ignored: the sorted tree always gathers.
	KeySorted bool
}

// DefaultMaxDepth bounds the concurrent build's depth; bodies that would
// subdivide deeper are chained within a single leaf. 48 levels is deep
// enough that distinct float64 positions virtually always separate first.
const DefaultMaxDepth = 48

// ErrPoolExhausted reports that the node pool was too small for the body
// distribution even after growth retries.
var ErrPoolExhausted = errors.New("octree: node pool exhausted")

// Tree is a Concurrent Octree. A Tree is reusable across timesteps: Build
// resets and repopulates it. The zero value is not usable; call New.
type Tree struct {
	cfg Config

	// Per-node state, 1 + 8*capGroups entries each. nodes holds every
	// node's moments and opening size on both builds, and on the
	// key-sorted build also its body range and links: the view
	// AccelerationsList walks (package walk).
	child   []int32
	counter []int32
	nodes   []walk.Node

	// Per-group state.
	parent []int32
	depth  []uint8

	// Per-body chain links for leaves holding more than one body.
	next []int32

	// Key-sorted build only (Config.KeySorted; see sorted.go).
	bucket      int      // leaf capacity above the key depth cap
	levels      []int32  // levels[d] = groups of depth ≤ d
	keys        []uint64 // Hilbert keys of the bodies, sorted
	sortPerm    []int32
	front, back []span  // frontier of the level being built, and of the next
	slots       []int32 // per frontier entry: children joining the next frontier

	nGroups  atomic.Int32
	overflow atomic.Bool

	// Body position arrays of the system being built, captured for the
	// duration of Build so the insertion loop avoids closure overhead.
	bodiesX, bodiesY, bodiesZ []float64

	rootCenter vec.V3
	rootHalf   float64
	nBodies    int
}

// New returns an empty tree with the given configuration.
func New(cfg Config) *Tree { return newBucket(cfg, leafBucket) }

// newBucket is New with the key-sorted build's leaf capacity chosen by the
// caller: at 1 that build must reproduce the concurrent one, which is how
// the tests check it.
func newBucket(cfg Config, bucket int) *Tree {
	return &Tree{cfg: cfg, bucket: bucket}
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// NumNodes returns the number of allocated nodes (root plus full sibling
// groups) after a Build.
func (t *Tree) NumNodes() int { return 1 + 8*int(t.nGroups.Load()) }

// NumGroups returns the number of allocated sibling groups after a Build.
func (t *Tree) NumGroups() int { return int(t.nGroups.Load()) }

// RootBox returns the cubic root cell of the last Build.
func (t *Tree) RootBox() bounds.AABB {
	h := vec.Splat(t.rootHalf)
	return bounds.AABB{Min: t.rootCenter.Sub(h), Max: t.rootCenter.Add(h)}
}

// estimateGroups sizes the pool the way the paper does: from the node count
// of the isotropically subdivided level that can hold all bodies, i.e. the
// smallest level L with 8^L ≥ n, summed over all levels. For uniform
// distributions this overshoots comfortably; clustered distributions may
// need more, which Build handles by growing and rebuilding.
func estimateGroups(n int) int {
	if n < 8 {
		return 16
	}
	leaves := 1
	for leaves < n {
		leaves *= 8
	}
	// Total groups in a complete tree with `leaves` leaf slots:
	// leaves/8 + leaves/64 + … + 1 groups of internal fan-out, but the
	// distribution is never complete; 2·n/8-ish groups suffice for
	// uniform data. Use the geometric total capped at 4n/8 groups and
	// floored at n/4 to keep small pools honest.
	total := 0
	for l := leaves; l >= 8; l /= 8 {
		total += l / 8
	}
	if cap := n / 2; total > cap && cap >= 16 {
		total = cap
	}
	if total < n/4 {
		total = n / 4
	}
	if total < 16 {
		total = 16
	}
	return total
}

// grow reallocates the pool for at least groups sibling groups.
func (t *Tree) grow(groups int) {
	nodes := 1 + 8*groups
	t.child = make([]int32, nodes)
	t.counter = make([]int32, nodes)
	t.nodes = make([]walk.Node, nodes)
	t.parent = make([]int32, groups)
	t.depth = make([]uint8, groups)
}

// capGroups returns the current pool capacity in groups.
func (t *Tree) capGroups() int {
	if len(t.child) == 0 {
		return 0
	}
	return (len(t.child) - 1) / 8
}

// Build constructs the octree over the bodies of s, whose bounding box must
// be box (typically the result of bounds.OfPositions).
//
// Without Config.KeySorted it implements the paper's BUILDTREE step
// (Algorithm 4): a Parallel For over bodies, each performing a root-to-leaf
// traversal and inserting with CAS-based fine-grained locking. The loop
// requires the par policy's parallel forward progress guarantee — a thread
// that acquires a node lock must be rescheduled to release it. If the
// pre-reserved node pool overflows, Build transparently grows it and
// rebuilds, returning an error only if growth hits an unreasonable bound.
//
// With Config.KeySorted it permutes s into Hilbert order and builds from
// the sorted keys (buildSorted); that path returns no error.
func (t *Tree) Build(r *par.Runtime, s *body.System, box bounds.AABB) error {
	n := s.N()
	t.nBodies = n

	cube := box.Cube().Pad(box.MaxExtent()*1e-12 + math.SmallestNonzeroFloat64)
	t.rootCenter = cube.Center()
	t.rootHalf = cube.Size().X / 2

	if len(t.next) < n {
		t.next = make([]int32, n)
	}

	if t.cfg.KeySorted {
		t.buildSorted(r, s, cube)
		return nil
	}

	want := estimateGroups(n)
	if t.capGroups() < want {
		t.grow(want)
	}

	const maxAttempts = 8
	for attempt := 0; ; attempt++ {
		if err := t.tryBuild(r, s); err == nil {
			return nil
		}
		if attempt == maxAttempts {
			return fmt.Errorf("%w after %d growth attempts (%d groups)", ErrPoolExhausted, attempt, t.capGroups())
		}
		t.grow(2 * t.capGroups())
	}
}

// tryBuild runs one parallel construction pass over the current pool,
// reporting ErrPoolExhausted if the bump allocator ran out.
func (t *Tree) tryBuild(r *par.Runtime, s *body.System) error {
	t.nGroups.Store(0)
	t.overflow.Store(false)
	t.child[0] = TokenEmpty
	t.bodiesX, t.bodiesY, t.bodiesZ = s.PosX, s.PosY, s.PosZ

	n := s.N()
	posX, posY, posZ := s.PosX, s.PosY, s.PosZ

	r.For(par.Par, n, func(i int) {
		if t.overflow.Load() {
			return // abandon this attempt quickly
		}
		t.insert(int32(i), posX[i], posY[i], posZ[i])
	})

	if t.overflow.Load() {
		return ErrPoolExhausted
	}
	return nil
}

// insert performs the root-to-leaf traversal of Algorithm 4 for one body.
func (t *Tree) insert(b int32, x, y, z float64) {
	node := int32(0)
	cx, cy, cz := t.rootCenter.X, t.rootCenter.Y, t.rootCenter.Z
	half := t.rootHalf
	depth := 0

	for {
		tok := atomic.LoadInt32(&t.child[node])
		switch {
		case tok >= 0:
			// Internal node: descend into the octant covering the body.
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
			depth++

		case tok == TokenEmpty:
			// Claim the empty leaf for this body.
			t.next[b] = -1
			if atomic.CompareAndSwapInt32(&t.child[node], TokenEmpty, bodyToken(b)) {
				return
			}
			// Lost the race; re-examine the node.

		case tok == TokenLocked:
			// Another thread is subdividing this node. With parallel
			// forward progress it will finish; yield and retry.
			runtime.Gosched()

		default: // body leaf
			if depth >= DefaultMaxDepth {
				// Chain the body onto the leaf's lock-free list.
				t.next[b] = tokenBody(tok)
				if atomic.CompareAndSwapInt32(&t.child[node], tok, bodyToken(b)) {
					return
				}
				continue
			}
			// Subdivide inside a critical section (Algorithm 5).
			if !atomic.CompareAndSwapInt32(&t.child[node], tok, TokenLocked) {
				continue // somebody else got the lock; retry
			}
			first, ok := t.allocGroup(node, depth+1)
			if !ok {
				// Pool exhausted: restore the token so other threads
				// do not spin on a lock that will never clear, then
				// flag the build for retry with a larger pool.
				atomic.StoreInt32(&t.child[node], tok)
				t.overflow.Store(true)
				return
			}
			// Move the resident body into the child octant covering it.
			old := tokenBody(tok)
			oct := int32(0)
			if t.posX(old) >= cx {
				oct |= 4
			}
			if t.posY(old) >= cy {
				oct |= 2
			}
			if t.posZ(old) >= cz {
				oct |= 1
			}
			t.child[first+oct] = tok
			// Publishing the child offset releases the lock; the plain
			// initialization of the group happens-before this store.
			atomic.StoreInt32(&t.child[node], first)
			// Loop continues: the next iteration descends into the
			// fresh children.
		}
	}
}

// bodyPos helpers: the build keeps a reference to the system arrays via
// closure-free fields to keep insert small. They are set by Build.
func (t *Tree) posX(b int32) float64 { return t.bodiesX[b] }
func (t *Tree) posY(b int32) float64 { return t.bodiesY[b] }
func (t *Tree) posZ(b int32) float64 { return t.bodiesZ[b] }

// allocGroup carves a fresh, initialized sibling group from the pool and
// returns the index of its first node. ok is false when the pool is
// exhausted.
func (t *Tree) allocGroup(parentNode int32, depth int) (first int32, ok bool) {
	g := t.nGroups.Add(1) - 1
	if int(g) >= t.capGroups() {
		t.nGroups.Add(-1)
		return 0, false
	}
	t.parent[g] = parentNode
	if depth > 255 {
		depth = 255
	}
	t.depth[g] = uint8(depth)
	first = 1 + 8*g
	for k := first; k < first+8; k++ {
		t.child[k] = TokenEmpty
		t.counter[k] = 0
	}
	return first, true
}

// parentOf returns the parent node index of node i (root has none; callers
// must not ask).
func (t *Tree) parentOf(i int32) int32 { return t.parent[(i-1)/8] }

// depthOf returns the depth of node i (root = 0).
func (t *Tree) depthOf(i int32) int {
	if i == 0 {
		return 0
	}
	return int(t.depth[(i-1)/8])
}
