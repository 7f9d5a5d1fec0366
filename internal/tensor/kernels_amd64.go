package tensor

// useAVX2 selects the vector bodies of kernels_amd64.s. They compute what the
// Go loops of kernels.go compute, bit for bit, so it is not a setting: it
// says what the CPU and the operating system can run, and tests clear it to
// hold the Go loops to the same references.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const osxsave, avx, avx2, xmmYmmState = 1 << 27, 1 << 28, 1 << 5, 6
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState { // the OS saves YMM registers
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func axpyRowsAVX2(d *float64, w int, coef *float64, stride int, b *float64, ld, rows int)

//go:noescape
func axpySumAVX2(d *float64, w, n int, c *[tile]float64, r *[tile][]float64)

//go:noescape
func dotLiveAVX2(out, a *float64, d int, b *float64, live *[2 * tile]int, n int, add bool)
