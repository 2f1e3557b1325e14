// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                 # every table and figure
//	experiments -run table2 -epochs 100  # one experiment, custom budget
//	experiments -run fig4 -tsne-dir out  # also dump t-SNE CSVs
//
// Runs are deterministic in -seed. With the default 200 epochs the full
// suite takes several minutes of pure-Go training; -epochs 60 gives the
// same qualitative shapes in a fraction of the time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gnnvault/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: table1|table2|table3|table4|fig4|fig5|fig6|ext-arch|ext-labelonly|ext-extract|ext-stream|ext-subgraph|ext-attack|ext-shard|all")
	epochs := flag.Int("epochs", 200, "training epochs per model")
	seed := flag.Int64("seed", 1, "random seed")
	datasetsFlag := flag.String("datasets", "", "comma-separated dataset subset (default: all)")
	tsneDir := flag.String("tsne-dir", "", "directory to write fig4 t-SNE CSVs into")
	sizesFlag := flag.String("sizes", "", "comma-separated power-law graph sizes for ext-subgraph and ext-shard (default 20000,50000; ext-shard uses the largest, floor 50000 — shard scale-out is degenerate on tiny graphs)")
	benchOut := flag.String("bench-out", "", "write ext-subgraph results as JSON to this path (e.g. BENCH_subgraph.json)")
	attackCheck := flag.String("attack-check", "", "validate ext-attack rows against this thresholds JSON (e.g. ci/attack_thresholds.json); exits non-zero on a privacy regression")
	flag.Parse()

	bench := benchDoc{}
	var attackRows []experiments.ExtAttackRow
	opts := experiments.Options{Epochs: *epochs, Seed: *seed}
	if *datasetsFlag != "" {
		opts.Datasets = strings.Split(*datasetsFlag, ",")
	}
	if *sizesFlag != "" {
		for _, s := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad -sizes entry %q\n", s)
				os.Exit(2)
			}
			opts.SubgraphSizes = append(opts.SubgraphSizes, n)
		}
	}

	jobs := map[string]func() string{
		"table1": func() string { _, t := experiments.Table1(opts); return t },
		"table2": func() string { _, t := experiments.Table2(opts); return t },
		"table3": func() string { _, t := experiments.Table3(opts); return t },
		"table4": func() string { _, t := experiments.Table4(opts); return t },
		"fig4": func() string {
			res, t := experiments.Fig4(opts)
			if *tsneDir != "" {
				if err := dumpTSNE(*tsneDir, res); err != nil {
					fmt.Fprintln(os.Stderr, "warning:", err)
				} else {
					t += fmt.Sprintf("\nt-SNE CSVs written to %s\n", *tsneDir)
				}
			}
			return t
		},
		"fig5": func() string { _, t := experiments.Fig5(opts); return t },
		"fig6": func() string { _, t := experiments.Fig6(opts); return t },
		// Extensions beyond the paper's evaluation.
		"ext-arch":      func() string { _, t := experiments.ExtArchitectures(opts); return t },
		"ext-labelonly": func() string { _, t := experiments.ExtLabelOnly(opts); return t },
		"ext-extract":   func() string { _, t := experiments.ExtExtraction(opts); return t },
		"ext-stream":    func() string { _, t := experiments.ExtStreaming(opts); return t },
		"ext-subgraph": func() string {
			rows, t := experiments.ExtSubgraph(opts)
			bench.add("subgraph_node_query", rows)
			return t
		},
		"ext-attack": func() string {
			rows, t := experiments.ExtAttack(opts)
			bench.add("attack_surface", rows)
			attackRows = rows
			return t
		},
		"ext-shard": func() string {
			rows, t := experiments.ExtShard(opts)
			bench.add("shard_fleet", rows)
			return t
		},
	}
	order := []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "table4", "ext-arch", "ext-labelonly", "ext-extract", "ext-stream", "ext-subgraph", "ext-attack", "ext-shard"}

	selected := strings.Split(*run, ",")
	if *run == "all" {
		selected = order
	}
	for _, name := range selected {
		job, ok := jobs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s, all)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		start := time.Now()
		text := job()
		fmt.Println(text)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *benchOut != "" {
		if err := bench.write(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "warning:", err)
		}
	}
	if *attackCheck != "" {
		if err := checkAttack(attackRows, *attackCheck); err != nil {
			fmt.Fprintln(os.Stderr, "privacy regression:", err)
			os.Exit(1)
		}
		fmt.Printf("attack thresholds OK (%s)\n", *attackCheck)
	}
}

// attackThresholds are the committed privacy-regression ceilings
// (ci/attack_thresholds.json): CI fails when any defended serving
// configuration leaks more than a past run plus margin, or when the
// undefended baseline stops leaking — the harness itself regressing.
type attackThresholds struct {
	// MaxDefendedLinkAUC bounds the best link-stealing AUC (either serving
	// path) of every row whose defense is not "undefended".
	MaxDefendedLinkAUC float64 `json:"max_defended_link_auc"`
	// MaxDefendedFidelity bounds extraction fidelity on defended rows.
	MaxDefendedFidelity float64 `json:"max_defended_fidelity"`
	// MinUndefendedLinkAUC keeps the baseline attack honest: if the
	// undefended rows fall to coin-flip the sweep is measuring nothing.
	MinUndefendedLinkAUC float64 `json:"min_undefended_link_auc"`
}

// checkAttack enforces the committed ceilings over an ext-attack run.
func checkAttack(rows []experiments.ExtAttackRow, path string) error {
	if len(rows) == 0 {
		return fmt.Errorf("-attack-check given but no ext-attack rows were produced (add ext-attack to -run)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var th attackThresholds
	if err := json.Unmarshal(raw, &th); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, r := range rows {
		auc := r.BestLinkAUCFull
		if r.BestLinkAUCSub > auc {
			auc = r.BestLinkAUCSub
		}
		id := fmt.Sprintf("%s/%s/%s/%s", r.Dataset, r.Design, r.Precision, r.Defense)
		if r.Defense == "undefended" {
			if r.BestLinkAUCFull < th.MinUndefendedLinkAUC {
				return fmt.Errorf("%s: link AUC %.3f below baseline floor %.3f — the attack harness lost its teeth",
					id, r.BestLinkAUCFull, th.MinUndefendedLinkAUC)
			}
			continue
		}
		if auc > th.MaxDefendedLinkAUC {
			return fmt.Errorf("%s: link AUC %.3f above defended ceiling %.3f", id, auc, th.MaxDefendedLinkAUC)
		}
		if r.Fidelity > th.MaxDefendedFidelity {
			return fmt.Errorf("%s: extraction fidelity %.3f above defended ceiling %.3f", id, r.Fidelity, th.MaxDefendedFidelity)
		}
	}
	return nil
}

// benchDoc accumulates the JSON-emitting experiments' rows, one key per
// experiment, so selecting several of them with one -bench-out writes a
// single merged document instead of each overwriting the last.
type benchDoc map[string]any

// add records one experiment's rows under its key.
func (d benchDoc) add(key string, rows any) { d[key] = rows }

// write serialises the accumulated document to path (the perf-tracking
// artifacts: BENCH_subgraph.json, BENCH_attack.json, …). A
// run whose selected experiments emitted nothing writes nothing.
func (d benchDoc) write(path string) error {
	if len(d) == 0 {
		fmt.Fprintf(os.Stderr, "warning: -bench-out %s: no selected experiment emits benchmark rows\n", path)
		return nil
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding bench JSON: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchmark JSON written to %s\n", path)
	return nil
}

func dumpTSNE(dir string, res *experiments.Fig4Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, csv := range map[string]string{
		"original.csv":  res.OriginalTSNE,
		"backbone.csv":  res.BackboneTSNE,
		"rectifier.csv": res.RectifierTSNE,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(csv), 0o644); err != nil {
			return err
		}
	}
	return nil
}
