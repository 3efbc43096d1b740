// Package bounds provides axis-aligned bounding boxes and the parallel
// bounding-box reduction that forms step 1 (CALCULATEBOUNDINGBOX) of the
// paper's Barnes-Hut time integration loop: a transform_reduce over all body
// positions yielding the smallest box containing every body (Algorithm 3 in
// the paper).
package bounds

import (
	"fmt"
	"math"

	"nbody/internal/par"
	"nbody/internal/vec"
)

// AABB is an axis-aligned bounding box described by its inclusive corner
// points. An empty box has Min components +Inf and Max components -Inf so
// that Union with any box or point behaves as identity.
type AABB struct {
	Min, Max vec.V3
}

// Empty returns the identity element of Union: a box containing nothing.
func Empty() AABB {
	return AABB{
		Min: vec.Splat(math.Inf(1)),
		Max: vec.Splat(math.Inf(-1)),
	}
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Extend returns the smallest box containing b and point p.
func (b AABB) Extend(p vec.V3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both b and o. It is the
// associative, commutative reduction operator of the bounding-box step.
func (b AABB) Union(o AABB) AABB {
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Contains reports whether p lies inside b (inclusive on all faces).
func (b AABB) Contains(p vec.V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// ContainsBox reports whether o lies entirely inside b. An empty o is
// contained in any box.
func (b AABB) ContainsBox(o AABB) bool {
	if o.IsEmpty() {
		return true
	}
	return b.Contains(o.Min) && b.Contains(o.Max)
}

// Center returns the box midpoint. Undefined for empty boxes.
func (b AABB) Center() vec.V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box edge lengths. Undefined for empty boxes.
func (b AABB) Size() vec.V3 { return b.Max.Sub(b.Min) }

// MaxExtent returns the longest edge length. Undefined for empty boxes.
func (b AABB) MaxExtent() float64 { return b.Size().MaxComponent() }

// Diagonal returns the length of the main diagonal. Undefined for empty
// boxes.
func (b AABB) Diagonal() float64 { return b.Size().Norm() }

// Cube returns the smallest cube sharing b's center that contains b.
// Octrees subdivide isotropically, so the root cell must be cubic.
func (b AABB) Cube() AABB {
	c := b.Center()
	h := b.MaxExtent() / 2
	return AABB{Min: c.Sub(vec.Splat(h)), Max: c.Add(vec.Splat(h))}
}

// Pad returns b grown by eps on every face.
func (b AABB) Pad(eps float64) AABB {
	return AABB{Min: b.Min.Sub(vec.Splat(eps)), Max: b.Max.Add(vec.Splat(eps))}
}

// Dist2 returns the squared distance from p to the nearest point of b
// (zero if p is inside). Used by BVH opening criteria that measure distance
// to the box rather than to the center of mass.
func (b AABB) Dist2(p vec.V3) float64 {
	d := 0.0
	for i := 0; i < 3; i++ {
		v := p.Component(i)
		lo := b.Min.Component(i)
		hi := b.Max.Component(i)
		if v < lo {
			d += (lo - v) * (lo - v)
		} else if v > hi {
			d += (v - hi) * (v - hi)
		}
	}
	return d
}

// String implements fmt.Stringer.
func (b AABB) String() string { return fmt.Sprintf("[%v..%v]", b.Min, b.Max) }

// OfPositions performs the paper's CALCULATEBOUNDINGBOX step: a parallel
// transform_reduce over the position arrays (SoA layout) computing the
// tightest box around all n bodies. The reduction runs under par_unseq
// exactly as in Algorithm 3 of the paper (no synchronization between
// iterations; per-worker partial boxes folded at the end).
func OfPositions(r *par.Runtime, p par.Policy, x, y, z []float64) AABB {
	n := len(x)
	return par.ReduceRanges(r, p, n, Empty(), AABB.Union,
		func(acc AABB, lo, hi int) AABB {
			// Manual min/max over the range keeps the inner loop free
			// of function-call overhead.
			for i := lo; i < hi; i++ {
				acc = acc.Extend(vec.V3{X: x[i], Y: y[i], Z: z[i]})
			}
			return acc
		})
}
