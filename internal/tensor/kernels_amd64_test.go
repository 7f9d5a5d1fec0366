package tensor

import "testing"

// goLoopsOnly turns the vector bodies off until tb ends, so that what runs
// is what a CPU without AVX2 runs; false where they are off already. Not for
// parallel tests: it writes a package variable.
func goLoopsOnly(tb testing.TB) bool {
	if !useAVX2 {
		return false
	}
	useAVX2 = false
	tb.Cleanup(func() { useAVX2 = true })
	return true
}
