package plan

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
)

// execFloats is the number of float64s an Exec owns: the union of every
// []float64 reachable from its fields (views of a shared backing array count
// once), not following the plan it belongs to.
func execFloats(e *Exec) int {
	type span struct{ lo, hi uintptr }
	var spans []span
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] || v.Type() == reflect.TypeOf((*Plan)(nil)) {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Struct:
			if strings.HasPrefix(v.Type().PkgPath(), "math/rand") {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Float64 {
				if v.Len() > 0 {
					spans = append(spans, span{v.Pointer(), v.Pointer() + uintptr(v.Len())*8})
				}
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(e))
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	total, end := 0, uintptr(0)
	for _, s := range spans {
		if s.lo > end {
			end = s.lo
		}
		if s.hi > end {
			total += int(s.hi-end) / 8
			end = s.hi
		}
	}
	return total
}

// TestFrozenExecOmitsTrainingScratch: a frozen plan cannot train, so its Exec
// carries none of the buffers only Forward(…, true) and Backward touch — at
// the paper's shapes that is well over half of a live Exec — and asking it to
// train still fails with the plan's own message rather than on a nil buffer.
func TestFrozenExecOmitsTrainingScratch(t *testing.T) {
	cfg := core.DefaultConfig(feature.Space{NumUsers: 30, NumObjects: 40})
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := feature.Instance{User: 3, Target: 5, Hist: []int{1, 2, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	var size [2]int
	var execs [2]*Exec
	for i, compile := range []func(any) (*Plan, error){For, Frozen} {
		p, err := compile(m)
		if err != nil {
			t.Fatal(err)
		}
		execs[i] = p.NewExec()
		execs[i].Score(inst) // grows the one slot inference uses
		size[i] = execFloats(execs[i])
	}
	t.Logf("live Exec %d floats, frozen Exec %d", size[0], size[1])
	if live, frozen := size[0], size[1]; frozen == 0 || 2*frozen > live {
		t.Fatalf("frozen Exec holds %d floats, live %d: want at most half", frozen, live)
	}

	mustPanicWith := func(want string, f func()) {
		t.Helper()
		defer func() {
			if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
				t.Fatalf("panic %q, want one mentioning %q", got, want)
			}
		}()
		f()
	}
	frozen := execs[1]
	mustPanicWith("training Forward on a frozen plan", func() { frozen.Forward([]feature.Instance{inst}, true) })
	mustPanicWith("Backward without a preceding training-mode Forward", func() {
		frozen.Backward([]float64{1}, ag.NewGradShard(m.Params()))
	})
}
