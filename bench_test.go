package gnnvault_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its experiment through
// internal/experiments and reports the headline quantities as custom bench
// metrics, so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// Benchmarks run with a reduced epoch budget (the shapes stabilise well
// before the paper's 200 epochs); cmd/experiments runs the full-budget
// version.

import (
	"testing"

	"gnnvault/internal/core"
	"gnnvault/internal/experiments"
	"gnnvault/internal/substitute"
)

// benchOpts is the reduced-budget configuration shared by all benches.
func benchOpts() experiments.Options {
	return experiments.Options{Epochs: 60, Seed: 1, AttackPairs: 300}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table1(benchOpts())
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable2Rectifiers(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table2(opts)
		r := rows[0]
		b.ReportMetric(r.POrg*100, "p_org_%")
		b.ReportMetric(r.PBB*100, "p_bb_%")
		b.ReportMetric(r.Designs[core.Parallel].PRec*100, "p_rec_par_%")
		if r.Designs[core.Parallel].PRec <= r.PBB {
			b.Fatal("rectifier did not beat backbone")
		}
	}
}

func BenchmarkTable3Backbones(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table3(opts)
		r := rows[0]
		b.ReportMetric(r.Kinds[substitute.KindDNN].PBB*100, "dnn_p_bb_%")
		b.ReportMetric(r.Kinds[substitute.KindRandom].PBB*100, "rand_p_bb_%")
		b.ReportMetric(r.Kinds[substitute.KindKNN].PBB*100, "knn_p_bb_%")
		if r.Kinds[substitute.KindRandom].PBB >= r.Kinds[substitute.KindKNN].PBB {
			b.Fatal("random backbone should be worst")
		}
	}
}

func BenchmarkTable4LinkStealing(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table4(opts)
		var worstOrg, worstGV float64
		for _, r := range rows {
			if r.MOrg > worstOrg {
				worstOrg = r.MOrg
			}
			if r.MGV > worstGV {
				worstGV = r.MGV
			}
		}
		b.ReportMetric(worstOrg, "auc_org")
		b.ReportMetric(worstGV, "auc_gv")
		if worstGV >= worstOrg {
			b.Fatal("GNNVault did not reduce link leakage")
		}
	}
}

func BenchmarkFig4Silhouette(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig4(opts)
		last := len(res.RectifierSilhouette) - 1
		b.ReportMetric(res.RectifierSilhouette[last], "sil_rec")
		b.ReportMetric(res.BackboneSilhouette[len(res.BackboneSilhouette)-1], "sil_bb")
	}
}

func BenchmarkFig5Ablation(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	for i := 0; i < b.N; i++ {
		results, _ := experiments.Fig5(opts)
		res := results[0]
		b.ReportMetric(res.KNNK[1].PRec*100, "knn_k2_p_rec_%")
		b.ReportMetric(res.RandomRatio[len(res.RandomRatio)-1].PRec*100, "rand_200pct_p_rec_%")
	}
}

func BenchmarkFig6Overhead(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"} // M1 row of Fig. 6
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig6(opts)
		for _, r := range rows {
			if r.Design == core.Series {
				b.ReportMetric(r.OverheadPct, "series_overhead_%")
				b.ReportMetric(float64(r.EnclaveMemBytes)/(1<<20), "series_epc_MB")
			}
			if !r.FitsEPC {
				b.Fatalf("%s/%s rectifier does not fit EPC", r.Model, r.Design)
			}
		}
	}
}

// BenchmarkUnprotectedInference is the Fig. 6 CPU baseline.
func BenchmarkUnprotectedInference(b *testing.B) {
	ds, orig := trainedOriginal(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.UnprotectedInference(orig, ds.X)
	}
}

// BenchmarkExtArchitectures covers the paper's future work: GNNVault with
// GraphSAGE and GAT convolutions.
func BenchmarkExtArchitectures(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.ExtArchitectures(opts)
		for _, r := range rows {
			if r.PRec <= r.PBB {
				b.Fatalf("%s: partition strategy failed", r.Conv)
			}
		}
	}
}

// BenchmarkExtLabelOnly is the ablation for the Sec. IV-E label-only
// output rule.
func BenchmarkExtLabelOnly(b *testing.B) {
	opts := benchOpts()
	opts.Datasets = []string{"cora"}
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.ExtLabelOnly(opts)
		b.ReportMetric(rows[1].WorstAUC, "logit_auc")
		b.ReportMetric(rows[2].WorstAUC, "label_auc")
	}
}
