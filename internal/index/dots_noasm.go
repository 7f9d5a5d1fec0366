//go:build !amd64

package index

// Only amd64 has a vector body (dots_amd64.s): with the constant false the
// call below is dead code and dot's loop is all there is.
const useAVX2 = false

func dotsAVX2(out, q *float64, d int, data *float64, rows *int32, n int) {}
