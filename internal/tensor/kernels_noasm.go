//go:build !amd64

package tensor

// Only amd64 has vector bodies (kernels_amd64.s): with the constant false
// every call below is dead code and the Go loops of kernels.go are all there
// is.
const useAVX2 = false

func axpyRowsAVX2(d *float64, w int, coef *float64, stride int, b *float64, ld, rows int) {}

func axpySumAVX2(d *float64, w, n int, c *[tile]float64, r *[tile][]float64) {}

func dotLiveAVX2(out, a *float64, d int, b *float64, live *[2 * tile]int, n int, add bool) {}
