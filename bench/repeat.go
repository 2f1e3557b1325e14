package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is BENCHMARK.json's shape, as the driver's contract
// fixes it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// exactCounts are the count metrics that must repeat exactly on the
// workloads whose requests all move the same bytes.
var exactCounts = map[string]bool{"boundary_kb_per_req": true, "peak_epc_mb": true}

func sameBytesEveryRequest(w *workload) bool {
	return w.Fixture == "pubmed20k" && w.NodeQuery == nil
}

type setDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Rel      float64 `json:"relative_difference"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// runsPerSet is how many runs of each workload make one set; a set's
// figure is their median.
const runsPerSet = 3

// runRepeat is the repeatability gate: sets sets of runs of the same code
// on the same seeds must agree within the bounds BENCHMARK.json fixes. The
// sets alternate run by run (A B A B …), so the minutes-long drift of a
// shared box lands on both alike; it writes bench/out/repeat.json.
func runRepeat(seed int64, seconds float64, sets int) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	// values[set][workload][metric] holds one figure per round.
	values := make([]map[string]map[string][]float64, sets)
	for i := range values {
		values[i] = map[string]map[string][]float64{}
	}
	for round := 0; round < runsPerSet; round++ {
		for set := 0; set < sets; set++ {
			for _, w := range workloads {
				fmt.Printf("\n=== round %d/%d, set %d/%d: %s ===\n", round+1, runsPerSet, set+1, sets, w.Name)
				rep, err := runChild(w.Name, seed+int64(round), seconds, "0")
				if err != nil {
					return err
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, v := range rep.EndToEnd {
					values[set][w.Name][name] = append(values[set][w.Name][name], v.Value)
				}
			}
		}
	}
	printTable(func(w, m string) float64 { return median(values[sets-1][w][m]) })

	var diffs []setDiff
	bad := 0
	for set := 1; set < sets; set++ {
		for wi := range workloads {
			w := &workloads[wi]
			for _, m := range bf.EndToEnd {
				as, bs := values[set-1][w.Name][m.Name], values[set][w.Name][m.Name]
				d := setDiff{Workload: w.Name, Metric: m.Name, A: median(as), B: median(bs), Bound: m.Bound}
				if d.A != 0 {
					d.Rel = math.Abs(d.B-d.A) / math.Abs(d.A)
				}
				d.OK = d.Rel <= m.Bound
				if exactCounts[m.Name] && sameBytesEveryRequest(w) {
					// every run of both sets, not just the medians
					d.Bound = 0
					for _, vs := range [][]float64{as, bs} {
						for _, v := range vs {
							d.OK = d.OK && v == as[0]
						}
					}
				}
				if !d.OK {
					bad++
					fmt.Printf("REPEAT: %s %s: %.6g vs %.6g differs by %.4f (bound %.4f)\n", w.Name, m.Name, d.A, d.B, d.Rel, d.Bound)
				}
				diffs = append(diffs, d)
			}
		}
	}
	out := map[string]any{
		"env": readEnv(), "seed": seed, "window_s": seconds, "runs_per_set": runsPerSet,
		"values": values, "differences": diffs, "ok": bad == 0,
	}
	if err := writeJSON("repeat.json", out); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("repeatability: %d metric(s) moved by more than their bound between two sets of runs", bad)
	}
	fmt.Printf("repeatability: %d comparisons within their bounds\n", len(diffs))
	return nil
}
