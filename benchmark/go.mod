module seqfm/benchmark

go 1.24

require seqfm v0.0.0

replace seqfm => ../
