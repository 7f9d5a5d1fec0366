// Command seqfm-bench regenerates the paper's evaluation tables and figures
// on the synthetic stand-in datasets.
//
// Usage:
//
//	seqfm-bench -exp table2 -scale small
//	seqfm-bench -exp all   -scale tiny
//
// Experiments are: table1 (dataset statistics), table2 (ranking), table3
// (classification), table4 (regression), table5 (ablations), figure3
// (hyperparameter sensitivity), figure4 (scalability), all. Scales: tiny
// (seconds), small (minutes, default), medium, full (paper sizes; hours of
// CPU).
//
// The system's performance benchmark is not here: it is the separate module
// under benchmark/ (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seqfm/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|table3|table4|table5|figure3|figure4|all")
		scale   = flag.String("scale", "small", "scale: tiny|small|medium|full")
		seed    = flag.Int64("seed", 7, "master random seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	p := experiments.ParamsFor(experiments.Scale(*scale))
	p.Seed = *seed
	p.Workers = *workers

	runs := strings.Split(*exp, ",")
	if *exp == "all" {
		runs = []string{"table1", "table2", "table3", "table4", "table5", "figure3", "figure4"}
	}

	outW := os.Stdout
	for _, r := range runs {
		start := time.Now()
		var err error
		switch strings.TrimSpace(r) {
		case "table1":
			_, err = experiments.Table1(outW, p)
		case "table2":
			_, err = experiments.Table2(outW, p)
		case "table3":
			_, err = experiments.Table3(outW, p)
		case "table4":
			_, err = experiments.Table4(outW, p)
		case "table5":
			_, err = experiments.Table5(outW, p)
		case "figure3":
			_, err = experiments.Figure3(outW, p, experiments.Figure3Values{})
		case "figure4":
			_, err = experiments.Figure4(outW, p)
		default:
			err = fmt.Errorf("unknown experiment %q", r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqfm-bench: %s: %v\n", r, err)
			os.Exit(1)
		}
		fmt.Fprintf(outW, "  (%s completed in %.1fs)\n\n", r, time.Since(start).Seconds())
	}
}
