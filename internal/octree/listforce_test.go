package octree

import (
	"fmt"
	"math"
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/sfc"
	"nbody/internal/soa"
	"nbody/internal/vec"
	"nbody/internal/walk"
	"nbody/internal/workload"
)

// The tests below cover AccelerationsList, the group traversal: "Grouped"
// names the shared walk and its conservative opening criterion. The walk
// reads the records of the key-sorted build, so every tree here is
// key-sorted, and the sorted build permutes the bodies: references are
// taken after Build. Tests on systems of at most allpairs.DirectMaxN
// bodies call the walk, accelerationsList, directly: AccelerationsList
// sums such systems pairwise.

// accelerationsList is AccelerationsListPhi's tree walk, at any N.
func (t *Tree) accelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupSize int, phi []float64) {
	walk.Walk(r, pol, t.View(groupSize), s, p, phi)
}

func TestGroupedExactWhenThetaZero(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	for _, n := range []int{2, 63, 500} {
		for _, groupSize := range []int{1, 8, 100} {
			s := randomSystem(n, uint64(n)+301)
			p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
			tree := buildTree(t, sortedCfg, s, r)
			tree.ComputeMoments(r, s)
			ref := s.Clone()
			allpairs.AllPairs(r, par.ParUnseq, ref, p)

			tree.accelerationsList(r, par.ParUnseq, s, p, groupSize, nil)
			for i := 0; i < n; i++ {
				if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-10*(1+ref.Acc(i).Norm()) {
					t.Fatalf("n=%d group=%d body %d: %v vs %v", n, groupSize, i, s.Acc(i), ref.Acc(i))
				}
			}
		}
	}
}

// The flat path (key-sorted tree with bucket leaves, conservative group
// criterion) must never be less accurate than the paper's path (concurrent
// tree, per-body traversal) at equal θ.
func TestGroupedConservativeAccuracy(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	n := 3000
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.7}

	base := randomSystem(n, 307)
	ref := base.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)

	meanErr := func(cfg Config, run func(tree *Tree, s *parBody)) float64 {
		s := base.Clone()
		tree := buildTree(t, cfg, s, r)
		tree.ComputeMoments(r, s)
		run(tree, s)
		// Compare per body by ID (the sorted build permutes).
		refAcc := make([][3]float64, n)
		for i := 0; i < n; i++ {
			refAcc[ref.ID[i]] = [3]float64{ref.AccX[i], ref.AccY[i], ref.AccZ[i]}
		}
		var sum float64
		for i := 0; i < n; i++ {
			want := refAcc[s.ID[i]]
			dx := s.AccX[i] - want[0]
			dy := s.AccY[i] - want[1]
			dz := s.AccZ[i] - want[2]
			mag := want[0]*want[0] + want[1]*want[1] + want[2]*want[2]
			sum += (dx*dx + dy*dy + dz*dz) / (mag + 1e-12)
		}
		return sum / float64(n)
	}

	perBody := meanErr(Config{}, func(tree *Tree, s *parBody) {
		tree.Accelerations(r, par.ParUnseq, s, p, nil)
	})
	list := meanErr(Config{KeySorted: true}, func(tree *Tree, s *parBody) {
		tree.AccelerationsList(r, par.ParUnseq, s, p, 32)
	})
	if list > perBody*1.01 {
		t.Errorf("list error %g exceeds per-body error %g — criterion not conservative", list, perBody)
	}
}

// More coincident bodies than a leaf holds end in one leaf at the 21-level
// key cap, a bucket whatever the leaf capacity, and the list path sums them
// exactly at θ = 0.
func TestGroupedWithChains(t *testing.T) {
	r := par.NewRuntime(4, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-2, Theta: 0}
	for _, bucket := range []int{1, leafBucket} {
		s := randomSystem(50, 311)
		for i := 0; i < 19; i++ {
			s.SetPos(i, s.Pos(30))
		}
		tree := buildBucket(t, bucket, s, r)
		if st := tree.Stats(); st.MaxDepth != sfc.MaxOrder3D || (bucket == 1 && st.Chained != 19) {
			t.Fatalf("bucket %d: %v, want the 20 coincident bodies in one leaf at depth %d", bucket, st, sfc.MaxOrder3D)
		}
		tree.ComputeMoments(r, s)
		ref := s.Clone()
		allpairs.AllPairs(r, par.ParUnseq, ref, p)
		tree.accelerationsList(r, par.ParUnseq, s, p, 16, nil)
		for i := 0; i < s.N(); i++ {
			if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-9*(1+ref.Acc(i).Norm()) {
				t.Fatalf("bucket %d body %d: %v vs %v", bucket, i, s.Acc(i), ref.Acc(i))
			}
		}
	}
}

func TestGroupedEmptyAndDefaults(t *testing.T) {
	r := par.NewRuntime(2, par.Dynamic)
	s := randomSystem(0, 313)
	tree := New(sortedCfg)
	if err := tree.Build(r, s, tree.RootBox()); err != nil {
		t.Fatalf("empty build: %v", err)
	}
	tree.ComputeMoments(r, s)
	tree.accelerationsList(r, par.ParUnseq, s, grav.DefaultParams(), 0, nil)

	// A non-positive group size selects the default of 32.
	def := randomSystem(200, 317)
	tree = buildTree(t, sortedCfg, def, r)
	tree.ComputeMoments(r, def)
	want := def.Clone()
	tree.accelerationsList(r, par.ParUnseq, want, grav.DefaultParams(), 32, nil)
	tree.accelerationsList(r, par.ParUnseq, def, grav.DefaultParams(), 0, nil)
	for i := 0; i < def.N(); i++ {
		if def.Acc(i) != want.Acc(i) {
			t.Fatalf("body %d: group size 0 gave %v, 32 gave %v", i, def.Acc(i), want.Acc(i))
		}
	}
}

// Up to allpairs.DirectMaxN bodies AccelerationsList is the pairwise sum,
// bit for bit; one body more and it is the walk again.
func TestAccelerationsListDirectUpToCutoff(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.8}
	for _, n := range []int{allpairs.DirectMaxN, allpairs.DirectMaxN + 1} {
		s := randomSystem(n, 319)
		tree := buildTree(t, sortedCfg, s, r)
		tree.ComputeMoments(r, s)
		direct, walked := s.Clone(), s.Clone()
		allpairs.AllPairs(r, par.ParUnseq, direct, p)
		tree.accelerationsList(r, par.ParUnseq, walked, p, 0, nil)
		tree.AccelerationsList(r, par.ParUnseq, s, p, 0)
		want := walked
		if n <= allpairs.DirectMaxN {
			want = direct
		}
		differ := 0
		for i := 0; i < n; i++ {
			if s.Acc(i) != want.Acc(i) {
				t.Fatalf("n=%d body %d: %v, want %v", n, i, s.Acc(i), want.Acc(i))
			}
			if s.Acc(i) != direct.Acc(i) {
				differ++
			}
		}
		if n > allpairs.DirectMaxN && differ == 0 {
			t.Errorf("n=%d: the walk reproduced the pairwise sum exactly; θ %v approximates nothing", n, p.Theta)
		}
	}
}

// The list walk reads the key-sorted build's records; the concurrent
// build's leaves are chains, which it cannot read.
func TestAccelerationsListNeedsKeySortedTree(t *testing.T) {
	r := par.NewRuntime(1, par.Dynamic)
	s := randomSystem(100, 321)
	tree := buildTree(t, Config{}, s, r)
	tree.ComputeMoments(r, s)
	defer func() {
		if recover() == nil {
			t.Error("AccelerationsList on a concurrent-build tree did not panic")
		}
	}()
	tree.AccelerationsList(r, par.ParUnseq, s, grav.DefaultParams(), 0)
}

// tokenList is the octree's flat group walk as it was before the threaded
// node records, and the oracle of walk.View.Fill on the octree: it
// navigates by child tokens and advance, takes a node's size from its
// depth, a leaf's bodies from its chain and the group box from the
// bodies [b0, b1). Only the moments come from the records.
func tokenList(t *Tree, list *soa.List, s *body.System, b0, b1 int, theta2 float64) {
	var sizeAt [260]float64
	sz := 2 * t.rootHalf
	for d := range sizeAt {
		sizeAt[d] = sz
		sz *= 0.5
	}
	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	// Group bounding box.
	gMinX, gMinY, gMinZ := math.Inf(1), math.Inf(1), math.Inf(1)
	gMaxX, gMaxY, gMaxZ := math.Inf(-1), math.Inf(-1), math.Inf(-1)
	for b := b0; b < b1; b++ {
		gMinX = math.Min(gMinX, posX[b])
		gMinY = math.Min(gMinY, posY[b])
		gMinZ = math.Min(gMinZ, posZ[b])
		gMaxX = math.Max(gMaxX, posX[b])
		gMaxY = math.Max(gMaxY, posY[b])
		gMaxZ = math.Max(gMaxZ, posZ[b])
	}

	// Squared distance from a point to the group box (zero inside).
	boxDist2 := func(x, y, z float64) float64 {
		var d2 float64
		if v := gMinX - x; v > 0 {
			d2 += v * v
		} else if v := x - gMaxX; v > 0 {
			d2 += v * v
		}
		if v := gMinY - y; v > 0 {
			d2 += v * v
		} else if v := y - gMaxY; v > 0 {
			d2 += v * v
		}
		if v := gMinZ - z; v > 0 {
			d2 += v * v
		} else if v := z - gMaxZ; v > 0 {
			d2 += v * v
		}
		return d2
	}

	node := int32(0)
	for node >= 0 {
		tok := t.child[node]
		chain := 0
		for b := leafBody(tok); b >= 0; b = t.next[b] {
			chain++
		}
		if tok >= 0 || chain > 1 {
			nd := &t.nodes[node]
			size := sizeAt[t.depthOf(node)]
			if size*size < theta2*boxDist2(nd.X, nd.Y, nd.Z) {
				list.Add(nd.X, nd.Y, nd.Z, nd.M)
				node = t.advance(node)
				continue
			}
			if tok >= 0 {
				node = tok
				continue
			}
		}
		for b := leafBody(tok); b >= 0; b = t.next[b] {
			list.Add(posX[b], posY[b], posZ[b], mass[b])
		}
		node = t.advance(node)
	}
}

// The record walk builds the token walk's list for every group, entry for
// entry and bit for bit: on two inputs and on coincident bodies, at leaf
// buckets of 1 and 16, at the default group size and at 48, on a fresh
// tree and after a refit over moved bodies.
func TestRecordWalkMatchesTokenWalk(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	theta2 := 0.6 * 0.6
	coincident := workload.Plummer(2000, 13)
	for i := 0; i < 40; i++ {
		coincident.SetPos(i, coincident.Pos(1000))
	}
	inputs := map[string]*body.System{
		"galaxy":     workload.GalaxyCollision(3000, 11),
		"plummer":    workload.Plummer(2500, 12),
		"coincident": coincident,
	}
	for name, input := range inputs {
		for _, bucket := range []int{1, leafBucket} {
			for _, group := range []int{0, 48} {
				for _, refit := range []bool{false, true} {
					s := input.Clone()
					tree := buildBucket(t, bucket, s, r)
					tree.ComputeMoments(r, s)
					if refit {
						for i := 0; i < s.N(); i++ {
							d := 0.05 * math.Sin(float64(i))
							s.SetPos(i, s.Pos(i).Add(vec.New(d, -d, 2*d)))
						}
						tree.ComputeMoments(r, s)
					}
					at := fmt.Sprintf("%s bucket=%d group=%d refit=%v", name, bucket, group, refit)
					v := tree.View(group)
					if want := max(group, walk.GroupSize); v.Span != want {
						t.Fatalf("%s: span %d, want %d", at, v.Span, want)
					}
					n := s.N()
					for g := 0; g*v.Span < n; g++ {
						b0 := g * v.Span
						var want, got soa.List
						tokenList(tree, &want, s, b0, min(b0+v.Span, n), theta2)
						v.Fill(&got, s, g, theta2)
						if !sameList(&got, &want) {
							t.Fatalf("%s group %d: list of %d entries differs from the token walk's %d", at, g, got.Len(), want.Len())
						}
					}
				}
			}
		}
	}
}

func sameList(a, b *soa.List) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] || a.M[i] != b.M[i] {
			return false
		}
	}
	return true
}

// parBody aliases the body system type to keep helper signatures short.
type parBody = body.System
