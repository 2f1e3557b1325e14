// Command bench is the repository's serving benchmark: it stands the real
// stack up in-process (registry or shard fleet → worker pool → serve.API →
// its HTTP handler on a loopback listener), drives it with a closed loop
// of two keep-alive HTTP clients, checks every answer against labels from
// the training-time nn path, and reports ten end-to-end metrics plus a
// per-layer decomposition from an outside-in traced replay.
//
//	go run ./bench -workload full_fp64 -seed 1
//	go run ./bench -all [-repeat 2]
//	go run ./bench -selfcheck
//
// See README.md in this directory for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: full_fp64|full_int8_tiled|node_query|vault_churn|fleet_full")
		seed      = flag.Int64("seed", 1, "request-stream seed (which vault, which nodes, how many seeds, in what order)")
		seconds   = flag.Float64("seconds", 10, "measured window length in seconds; warm-up and replay scale with it")
		trace     = flag.String("trace", "both", "0 = measured window only (end-to-end metrics), 1 = traced replay only (per-layer metrics), both")
		all       = flag.Bool("all", false, "run every workload, each in a fresh process")
		repeat    = flag.Int("repeat", 1, "with -all: measure this many sets of runs of the same code and seeds, alternating, and fail when two sets differ by more than a metric's bound in BENCHMARK.json")
		selfcheck = flag.Bool("selfcheck", false, "prove the benchmark measures: inject a 2 ms handler delay into node_query and check where it shows")
	)
	flag.Parse()
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(2, "bench: -trace must be 0, 1 or both")
	}
	if *seconds < 1 {
		fatal(2, "bench: -seconds must be at least 1")
	}
	switch {
	case *selfcheck:
		if err := runSelfCheck(*seed); err != nil {
			fatal(1, "bench: selfcheck: %v", err)
		}
	case *all && *repeat > 1:
		if err := runRepeat(*seed, *seconds, *repeat); err != nil {
			fatal(1, "bench: %v", err)
		}
	case *all:
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fatal(1, "bench: %v", err)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(2, "bench: unknown workload %q (-workload, -all or -selfcheck)", *name)
		}
		rep, err := runWorkload(runOptions{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace})
		if err != nil {
			fatal(1, "bench: %s: %v", w.Name, err)
		}
		if err := writeJSON(w.Name+".json", rep); err != nil {
			fatal(1, "bench: %v", err)
		}
		printReport(rep)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// printReport prints every metric by name with its unit and clock, then
// the driver's one-line JSON result as the last line of standard output.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  trace %s  commit %s  %s GOMAXPROCS=%d nproc=%d (%s)\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Env.Commit, rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NProc, rep.Env.CPUModel)
	fmt.Printf("windows  warm-up %.1fs  measured %.1fs  replay %.1fs  (closed loop, %d clients)\n",
		rep.Windows.Warmup, rep.Windows.Window, rep.Windows.Replay, rep.Clients)
	for _, ph := range []string{"warmup", "window", "replay"} {
		if c, ok := rep.Phases[ph]; ok {
			fmt.Printf("  %-7s sent %d  succeeded %d  failed %d\n", ph, c.Sent, c.Succeeded, c.Failed)
		}
	}
	fmt.Printf("fixture  %s: generate %.2fs, train %.2fs; process start to serving %.2fs\n",
		rep.Fixture.Name, rep.Fixture.GenerateS, rep.Fixture.TrainS, rep.ProcessReadyS)
	for _, m := range rep.Fixture.Models {
		fmt.Printf("  %-16s rectified %.3f vs backbone-only %.3f test accuracy, reference classes %v\n",
			m.ID, m.RectAcc, m.BackboneAcc, m.ClassCounts)
	}
	fmt.Printf("host     speed factor %.3f at the window's median; ref-host figures are host time ÷ the factor sampled around it\n", rep.HostFactor)
	printMetrics("end to end", endToEnd, rep.EndToEnd)
	if rep.TailPercentile != 0 {
		fmt.Printf("  (latency_p95_ms reports percentile %.4f)\n", rep.TailPercentile)
	}
	printMetrics("per layer (traced replay)", perLayer, rep.PerLayer)
	if len(rep.LayerShares) > 0 {
		fmt.Println("layer share of one request (predicted → measured)")
		for _, l := range layers {
			s := rep.LayerShares[l]
			fmt.Printf("  %-10s %5.2f → %5.2f\n", l, s.Predicted, s.Measured)
		}
		fmt.Printf("  dominant layer: %s\n", rep.DominantLayer)
	}
	for _, p := range rep.Problems {
		fmt.Println("PROBLEM:", p)
	}
	for _, p := range rep.Warnings {
		fmt.Println("warning:", p)
	}

	metrics := map[string]metricValue{}
	for k, v := range rep.EndToEnd {
		metrics[k] = v
	}
	for k, v := range rep.PerLayer {
		metrics[k] = v
	}
	phase := "window"
	if rep.Trace == "1" {
		phase = "replay"
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Correct,
		"attempted": rep.Phases[phase].Sent,
		"failed":    rep.Phases[phase].Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(1, "bench: %v", err)
	}
	fmt.Println(string(line))
}

// runChild re-executes this binary for one workload so every workload
// runs in a fresh process, then reads the report it wrote.
func runChild(name string, seed int64, seconds float64, trace string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	data, err := os.ReadFile(filepath.Join(outDir, name+".json"))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s.json: %w", name, err)
	}
	return &rep, nil
}

// runAll runs every workload once, each in a fresh process, and prints the
// end-to-end table.
func runAll(seed int64, seconds float64, trace string) error {
	reps := map[string]*report{}
	for _, w := range workloads {
		fmt.Printf("\n=== %s ===\n", w.Name)
		rep, err := runChild(w.Name, seed, seconds, trace)
		if err != nil {
			return err
		}
		reps[w.Name] = rep
	}
	printTable(func(w, m string) float64 { return reps[w].EndToEnd[m].Value })
	return nil
}

// printTable prints one end-to-end figure per metric × workload.
func printTable(value func(workload, metric string) float64) {
	fmt.Printf("\n%-36s", "end to end")
	for _, w := range workloads {
		fmt.Printf(" %15s", w.Name)
	}
	fmt.Println()
	for _, m := range endToEnd {
		fmt.Printf("%-36s", m.Name+" ["+m.Unit+"]")
		for _, w := range workloads {
			fmt.Printf(" %15.4f", value(w.Name, m.Name))
		}
		fmt.Println()
	}
}
