package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictUngated    = "-"
)

// compareRow is one (metric, workload) pairing of two sets of runs.
type compareRow struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians
	Ratio                  float64 // New / Base
	BaseSpread, NewSpread  float64 // IQR / median; NaN with fewer than two runs
	Bound                  float64
	Verdict                string
}

// verdict applies a metric's direction and bound to two medians and their
// recorded spreads. A spread beyond the bound on either side means the runs
// cannot resolve a change of that size: "unresolved", never "unchanged".
func verdict(d metricDef, base, cur, baseSpread, curSpread float64) string {
	if d.Bound == 0 {
		return verdictUngated
	}
	if baseSpread > d.Bound || curSpread > d.Bound {
		return verdictUnresolved
	}
	worse := (cur - base) / base
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return verdictRegression
	case worse < -d.Bound:
		return verdictImproved
	}
	return verdictOK
}

// defFor finds a metric's definition: end-to-end by the issue's names first,
// then the per-layer table. Unknown names are reported ungated.
func defFor(name string) metricDef {
	for _, d := range workloadE2E {
		if d.Name == name {
			return d
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d
		}
	}
	return metricDef{Name: name}
}

type runSet struct {
	values            map[[2]string][]float64 // (workload, metric) → one value per run
	units             map[string]string
	attempted, failed map[string]int // per workload
}

func collect(reports []report) runSet {
	s := runSet{values: map[[2]string][]float64{}, units: map[string]string{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range reports {
		w := r.Workload
		if r.Trace == 1 {
			w += " (traced)"
		}
		s.attempted[w] += r.Attempted
		s.failed[w] += r.Failed
		for name, v := range r.Metrics {
			k := [2]string{w, name}
			s.values[k] = append(s.values[k], v.Value)
			s.units[name] = v.Unit
		}
	}
	return s
}

func spreadOrNaN(xs []float64) float64 {
	sp, err := spread(xs)
	if err != nil {
		return math.NaN()
	}
	return sp
}

// compareSets builds one row per (metric, workload) present in both sets and
// reports whether any workload's failed share rose.
func compareSets(old, cur []report) (rows []compareRow, failedShareRose []string) {
	a, b := collect(old), collect(cur)
	for k, base := range a.values {
		now, ok := b.values[k]
		if !ok {
			continue
		}
		d := defFor(k[1])
		row := compareRow{Workload: k[0], Metric: k[1], Unit: a.units[k[1]],
			Base: median(base), New: median(now), Bound: d.Bound,
			BaseSpread: spreadOrNaN(base), NewSpread: spreadOrNaN(now)}
		row.Ratio = row.New / row.Base
		row.Verdict = verdict(d, row.Base, row.New, row.BaseSpread, row.NewSpread)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		gi, gj := rows[i].Bound > 0, rows[j].Bound > 0
		if gi != gj {
			return gi
		}
		return rows[i].Metric < rows[j].Metric
	})
	for w, att := range b.attempted {
		if a.attempted[w] == 0 || att == 0 {
			continue
		}
		if float64(b.failed[w])/float64(att) > float64(a.failed[w])/float64(a.attempted[w]) {
			failedShareRose = append(failedShareRose, w)
		}
	}
	sort.Strings(failedShareRose)
	return rows, failedShareRose
}

// runCompare prints the table and returns the exit code: non-zero on any
// regression or a higher failed share.
func runCompare(w io.Writer, oldPath, newPath string) int {
	old, err := readReports(oldPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	cur, err := readReports(newPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	rows, rose := compareSets(old, cur)
	if len(rows) == 0 {
		fmt.Fprintln(w, "compare: the two files share no (workload, metric) pair")
		return 2
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tspread base\tspread new\tbound\tverdict")
	regressions, unresolved := 0, 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f\t%.3f\t%.3f\t%.2f\t%s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, r.Ratio, r.BaseSpread, r.NewSpread, r.Bound, r.Verdict)
		switch r.Verdict {
		case verdictRegression:
			regressions++
		case verdictUnresolved:
			unresolved++
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d rows, %d regressions, %d unresolved (spread beyond the bound: lengthen the run, do not widen the bound)\n",
		len(rows), regressions, unresolved)
	for _, wl := range rose {
		fmt.Fprintf(w, "failed share rose on %s\n", wl)
	}
	if regressions > 0 || len(rose) > 0 {
		return 1
	}
	return 0
}
