package index

import "seqfm/internal/tensor"

// useAVX2 selects the vector body of Store.dots (dots_amd64.s). It computes
// what dot computes, bit for bit, so it is not a setting: it says what the CPU
// and the operating system can run, and tests clear it to hold dot's loop to
// the same checks.
var useAVX2 = tensor.HasAVX2()

//go:noescape
func dotsAVX2(out, q *float64, d int, data *float64, rows *int32, n int)
