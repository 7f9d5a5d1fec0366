package train

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	_ "unsafe" // for go:linkname

	"seqfm/internal/core"
	"seqfm/internal/data"
)

// tensorUseAVX2 is internal/tensor's unexported useAVX2: whether its kernels
// run their vector bodies (kernels_amd64.s) or their Go loops alone. Nothing
// exports it — it is not a setting — so this test reaches it by name.
//
//go:linkname tensorUseAVX2 seqfm/internal/tensor.useAVX2
var tensorUseAVX2 bool

// TestVectorKernelsTrainIdentically is the in-repo stand-in for the
// benchmark's pinned HR@10: the same seeded compiled training run and
// evaluation, once on the vector bodies and once on the Go loops, must end in
// the same parameters to the last byte, the same epoch losses and the same
// metrics. Dim 52 is one strip each of 32, 16 and 4 columns, and the 12-long
// histories leave four dot rows after a group of eight.
func TestVectorKernelsTrainIdentically(t *testing.T) {
	if !tensorUseAVX2 {
		t.Skip("this CPU (or OS) has no AVX2: only the Go loops run here, there is no second path to compare")
	}
	ds, err := data.GeneratePOI(data.GowallaConfig(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	split := data.NewSplit(ds).SubsetTrain(0.25) // a few hundred instances: two epochs in well under a second
	run := func() (losses []float64, hr10 float64, params [sha256.Size]byte) {
		m, err := core.New(core.Config{Space: ds.Space(), Dim: 52, Layers: 1, MaxSeqLen: 12, KeepProb: 0.9, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		hist, err := Ranking(m, split, Config{Engine: EngineCompiled, Epochs: 2, BatchSize: 64, LR: 0.01, Negatives: 5, Seed: 5, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range hist.Epochs {
			losses = append(losses, e.Loss)
		}
		h := sha256.New()
		for _, p := range m.Params() {
			for _, v := range p.Value.Data {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		return losses, EvalRanking(m, split, EvalConfig{J: 50, Seed: 7, Workers: 2}).HR[10], [sha256.Size]byte(h.Sum(nil))
	}
	vecLosses, vecHR, vecParams := run()
	tensorUseAVX2 = false
	t.Cleanup(func() { tensorUseAVX2 = true })
	goLosses, goHR, goParams := run()
	if !slices.Equal(vecLosses, goLosses) {
		t.Errorf("epoch losses: vector bodies %v, Go loops %v", vecLosses, goLosses)
	}
	if vecHR != goHR {
		t.Errorf("HR@10: vector bodies %v, Go loops %v", vecHR, goHR)
	}
	if vecParams != goParams {
		t.Errorf("parameters differ: sha256 %x on the vector bodies, %x on the Go loops", vecParams, goParams)
	}
	if vecLosses[1] >= vecLosses[0] || vecHR == 0 {
		t.Errorf("the run compared did not train: losses %v, HR@10 %v", vecLosses, vecHR)
	}
}
