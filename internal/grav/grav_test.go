package grav

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.G != 1 || p.Theta != 0.5 || p.Eps <= 0 {
		t.Errorf("DefaultParams = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if p.Eps2() != p.Eps*p.Eps {
		t.Errorf("Eps2 = %v", p.Eps2())
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{G: math.NaN(), Eps: 0, Theta: 0},
		{G: math.Inf(1), Eps: 0, Theta: 0},
		{G: 1, Eps: -0.1, Theta: 0},
		{G: 1, Eps: math.NaN(), Theta: 0},
		{G: 1, Eps: 0, Theta: -1},
		{G: 1, Eps: 0, Theta: math.Inf(1)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestAccumulateInverseSquare(t *testing.T) {
	// Unit mass at distance 2 along x, no softening: |Δa| = 1/4 toward it.
	var ax, ay, az, pot float64
	Accumulate(2, 0, 0, 1, 0, &ax, &ay, &az, &pot)
	if math.Abs(ax-0.25) > 1e-15 || ay != 0 || az != 0 || pot != 0.5 {
		t.Errorf("Accumulate = (%v, %v, %v), pot %v", ax, ay, az, pot)
	}
}

func TestAccumulateZeroOffset(t *testing.T) {
	var ax, ay, az, pot float64
	Accumulate(0, 0, 0, 5, 0, &ax, &ay, &az, &pot) // self-interaction, ε = 0
	if ax != 0 || ay != 0 || az != 0 || pot != 0 {
		t.Errorf("self-interaction produced (%v, %v, %v), pot %v", ax, ay, az, pot)
	}
	// Softened: f·d = 0 anyway, but the potential term is m/ε.
	Accumulate(0, 0, 0, 5, 1e-6, &ax, &ay, &az, &pot)
	if ax != 0 || ay != 0 || az != 0 || pot != 5/math.Sqrt(1e-6) {
		t.Errorf("softened self-interaction produced (%v, %v, %v), pot %v", ax, ay, az, pot)
	}
}

func TestAccumulateSoftening(t *testing.T) {
	// With softening the force at distance d is m·d/(d²+ε²)^(3/2),
	// strictly below the unsoftened value.
	var hard, soft float64
	var ay, az, pot float64
	Accumulate(1, 0, 0, 1, 0, &hard, &ay, &az, &pot)
	Accumulate(1, 0, 0, 1, 0.5, &soft, &ay, &az, &pot)
	if soft >= hard {
		t.Errorf("softened %v not below unsoftened %v", soft, hard)
	}
	want := 1 / math.Pow(1.5, 1.5)
	if math.Abs(soft-want) > 1e-15 {
		t.Errorf("softened force %v, want %v", soft, want)
	}
}

func TestPairPotential(t *testing.T) {
	if got := PairPotential(2, 3, 4, 25, 0); got != -2*3*4/5.0 {
		t.Errorf("PairPotential = %v", got)
	}
	if got := PairPotential(1, 1, 1, 0, 0); got != 0 {
		t.Errorf("coincident PairPotential = %v", got)
	}
	// Softened: denominator √(r²+ε²).
	if got := PairPotential(1, 1, 1, 9, 16); got != -0.2 {
		t.Errorf("softened PairPotential = %v", got)
	}
}

// Property: accumulated acceleration points toward the source and its
// magnitude matches m/(r²+ε²)^{3/2}·r.
func TestPropAccumulateDirection(t *testing.T) {
	f := func(dxr, dyr, dzr int16, mr uint8) bool {
		dx := float64(dxr) / 100
		dy := float64(dyr) / 100
		dz := float64(dzr) / 100
		m := float64(mr)/10 + 0.1
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			return true
		}
		var ax, ay, az, pot float64
		Accumulate(dx, dy, dz, m, 0, &ax, &ay, &az, &pot)
		// Parallel to (dx,dy,dz) with positive scale.
		dot := ax*dx + ay*dy + az*dz
		if dot <= 0 {
			return false
		}
		mag := math.Sqrt(ax*ax + ay*ay + az*az)
		want := m / r2
		return math.Abs(mag-want) < 1e-9*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
