package soa

// useAVX selects accelAVX for the softened branch of Accel. It is decided
// once, from what the machine reports and nothing else: the CPU has AVX
// and OSXSAVE (CPUID.1:ECX bits 28 and 27 — XGETBV faults without the
// latter) and the OS saves the XMM and YMM state (XCR0 bits 1 and 2).
var useAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return cpuid1ecx()&(osxsave|avx) == osxsave|avx && xcr0()&6 == 6
}()

//go:noescape
func accelAVX(xs, ys, zs, ms *float64, n int, xi, yi, zi, eps2 float64) (ax, ay, az, pot float64)

func cpuid1ecx() uint32

func xcr0() uint32
