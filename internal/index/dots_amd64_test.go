package index

import "testing"

// dotLoopOnly turns the vector body off until tb ends, so that what runs is
// what a CPU without AVX2 runs; false where it is off already. Not for
// parallel tests: it writes a package variable.
func dotLoopOnly(tb testing.TB) bool {
	if !useAVX2 {
		return false
	}
	useAVX2 = false
	tb.Cleanup(func() { useAVX2 = true })
	return true
}
