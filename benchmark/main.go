// Command benchmark is the repository's one benchmark: it assembles the
// production serving stack in-process from the public constructors, drives
// it with its own seeded session-replay generator, checks the outputs, and
// prints every metric by name. See README.md in this directory.
//
//	bash benchmark/run.sh --workload rec_cold --seed 1 --seconds 32 --trace 0
//	bash benchmark/run.sh --workload all                      # every workload, one process each
//	bash benchmark/run.sh --workload mixed_online --trace 1   # per-layer budget + span file
//	bash benchmark/run.sh -compare old.jsonl new.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// outDir holds everything a run leaves behind (git-ignored): the last
// report per workload, span files, and the run's scratch directory.
const outDir = "benchmark/out"

func main() {
	var (
		workload = flag.String("workload", "all", "rec_cold | topk_warm | mixed_online | train_offline | all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 32, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer budget and span file instead of end-to-end metrics")
		out      = flag.String("out", "", "append the run's full record to this file, one JSON line per run (input to -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: old new"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	if workloadByName(*workload) == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	dir := filepath.Join(outDir, "tmp-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	a := runArgs{seed: *seed, seconds: *seconds, trace: *trace, dir: dir}
	var r *report
	var err error
	if *workload == "train_offline" {
		r, err = runTrainOffline(a)
	} else {
		r, err = runServing(*workload, a)
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	r.GoMaxProcs, r.Senders = runtime.GOMAXPROCS(0), senders()
	rss, err := peakRSSMB()
	if err != nil {
		fatal(err)
	}
	r.set("peak_rss_mb", "MB", rss, 0)

	line, err := r.contract()
	if err != nil {
		fatal(err)
	}
	suffix := ".json"
	if *trace == 1 {
		suffix = ".trace.json"
	}
	if err := r.save(filepath.Join(outDir, *workload+suffix), *out); err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	r.print(w)
	enc, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", enc)
	w.Flush()
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs every workload in its own process (peak RSS and caches are
// per workload) and passes their output through.
func runAll(seed int64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloadDefs {
		args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
