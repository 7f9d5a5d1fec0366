package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricValue is one measured number. N is the sample count behind it
// (timings and ratios); 0 for a single measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// phaseReport counts one phase's operations: a shed (429/503) or failed
// request misses any latency limit and counts here.
type phaseReport struct {
	Name         string  `json:"name"`
	Seconds      float64 `json:"seconds"`
	OpsAttempted int     `json:"ops_attempted"`
	OpsFailed    int     `json:"ops_failed"`
}

// report is one run's full record — what benchmark/out/<workload>.json
// holds and what -out appends, one line per run, for -compare.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Senders    int     `json:"senders"`
	PlanHash   string  `json:"plan_hash,omitempty"`

	Correct    bool          `json:"correct"`
	Attempted  int           `json:"ops_attempted"`
	Failed     int           `json:"ops_failed"`
	Phases     []phaseReport `json:"phases"`
	Checks     []string      `json:"checks"`
	Violations []string      `json:"violations,omitempty"`
	Notes      []string      `json:"notes,omitempty"`

	// Metrics holds every number the run measured, by the harness's own
	// names: the workload's end-to-end metrics, its workload-scoped layer
	// counters, and — on a traced run — the per-layer budget.
	Metrics map[string]metricValue `json:"metrics"`

	// Claim stays null: this benchmark defines names and claims no gain.
	Claim *string `json:"claim"`
}

func newReport(workload string, seed int64, seconds float64, trace int) *report {
	return &report{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Metrics: map[string]metricValue{}}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

func (r *report) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.Checks = append(r.Checks, "ok: "+msg)
		return
	}
	r.Correct = false
	r.Violations = append(r.Violations, msg)
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) addPhase(name string, seconds float64, attempted, failed int) {
	r.Phases = append(r.Phases, phaseReport{Name: name, Seconds: seconds, OpsAttempted: attempted, OpsFailed: failed})
	r.Attempted += attempted
	r.Failed += failed
}

// contractLine is the driver's result object: exactly these four keys, the
// metrics exactly the end_to_end names (trace 0) or per_layer names (trace 1).
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) contract() (contractLine, error) {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if line.Attempted < 1 {
		return line, fmt.Errorf("%s: no operation attempted", r.Workload)
	}
	pick := func(contractName, own, unit string) error {
		v, ok := r.Metrics[own]
		if !ok {
			return fmt.Errorf("%s: metric %s (for %s) was not measured", r.Workload, own, contractName)
		}
		line.Metrics[contractName] = metricValue{Value: v.Value, Unit: unit}
		return nil
	}
	if r.Trace == 1 {
		for _, d := range perLayer {
			if err := pick(d.Name, d.Name, d.Unit); err != nil {
				return line, err
			}
		}
		return line, nil
	}
	w := workloadByName(r.Workload)
	for _, d := range contractE2E {
		if err := pick(d.Name, w.Project[d.Name], d.Unit); err != nil {
			return line, err
		}
	}
	return line, nil
}

// print writes every metric by name with unit and sample count, the phase
// counts, checks and notes — the human half of the output.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d  GOMAXPROCS %d  senders %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.GoMaxProcs, r.Senders)
	if r.PlanHash != "" {
		fmt.Fprintf(w, "plan %s\n", r.PlanHash[:16])
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "phase %-12s %7.2fs  ops_attempted %-6d ops_failed %d\n", p.Name, p.Seconds, p.OpsAttempted, p.OpsFailed)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	// End-to-end names (no module prefix) first, then the layers.
	sort.Slice(names, func(a, b int) bool {
		da, db := strings.Contains(names[a], "."), strings.Contains(names[b], ".")
		if da != db {
			return !da
		}
		return names[a] < names[b]
	})
	for _, n := range names {
		v := r.Metrics[n]
		count := ""
		if v.N > 0 {
			count = fmt.Sprintf("  n=%d", v.N)
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-8s%s\n", n, v.Value, v.Unit, count)
	}
	if wd := workloadByName(r.Workload); wd != nil && r.Trace == 0 {
		for _, d := range contractE2E {
			fmt.Fprintf(w, "  BENCHMARK.json %-18s = %s\n", d.Name, wd.Project[d.Name])
		}
		if !wd.Gated {
			fmt.Fprintf(w, "  (%s is not listed in BENCHMARK.json: reported and compared, not gated by the driver)\n", wd.Name)
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, c)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, v := range r.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
}

// save writes the record to path (overwriting) and, when appendTo is set,
// appends it as one JSON line there.
func (r *report) save(path, appendTo string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	pretty, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	if appendTo == "" {
		return nil
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(appendTo, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readReports loads a -out file: one report per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
