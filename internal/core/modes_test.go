package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"gnnvault/internal/enclave"
	"gnnvault/internal/mat"
)

// TestPlanModesMatchReference is the one table every planned answer is
// held to the reference forward from: conv kind × rectifier design ×
// full-graph plan mode, on the cora fixture. The reference is the nn
// forward — Rectifier.Forward over Backbone.Embeddings, its logits and
// their argmax — which shares no code with the compiled programs above the
// kernels.
//
// fp64 modes must reproduce the reference labels exactly and its logits
// to 1e-9, and the tiled and budgeted logits must equal the direct plan's
// bit for bit. An int8 plan is either admitted by the calibration gate —
// then its tiled labels equal its direct labels — or refused with
// ErrCalibrationFailed, the same way in both modes; any other error, or a
// disagreement between the modes, fails. The budgeted cell also carries
// the EPC claim: the charge stays inside the budget plus the attention
// scratch row the program declares, and below the direct plan's.
//
// Every cell also answers three times — for the caller's own copy of the
// features (the backbone runs), for the freshly registered features (the
// first such pass fills the public-half store; an int8 plan's calibration
// already has) and for them again (the store is read) — and the three
// must agree bit for bit: logits at fp64, labels at int8. After each cell
// the store still equals the reference embeddings: no machine writes its
// inputs.
//
// The last row of every cell is the one-shot form: Vault.Predict's labels
// equal the direct plan's, whether or not the backbone ran, and it leaves
// the enclave holding the persistent residents only — when it answers and
// when the workspace it needs does not fit.
func TestPlanModesMatchReference(t *testing.T) {
	const budget = 1 << 20
	modes := []struct {
		name string
		cfg  PlanConfig
	}{
		{"direct", PlanConfig{}},
		{"tiled", PlanConfig{TileRows: 97}},
		{"budgeted", PlanConfig{EPCBudgetBytes: budget}},
		{"int8", PlanConfig{Precision: PrecisionInt8}},
		{"int8-tiled", PlanConfig{Precision: PrecisionInt8, TileRows: 97}},
	}
	for _, conv := range ConvKinds {
		for _, design := range Designs {
			t.Run(fmt.Sprintf("%s/%s", conv, design), func(t *testing.T) {
				ds, v := convTestVault(t, conv, design, 5)
				n := ds.X.Rows
				ownX := ds.X.Clone()
				wantEmbs := selectEmbeddings(v.Backbone.Embeddings(ds.X), v.rectifier.RequiredEmbeddings())
				wantLogits := v.rectifier.Forward(wantEmbs, false)
				wantLabels := wantLogits.ArgmaxRows()

				// One attention scratch row is the structure's longest row.
				scratchRow := int64(0)
				if st := v.op; conv == ConvGAT {
					for i := 0; i < st.N; i++ {
						scratchRow = max(scratchRow, int64(st.RowPtr[i+1]-st.RowPtr[i])*8)
					}
				}

				var directLogits []float64 // fp64 direct plan's, for bit-identity
				var directLabels []int
				var directEPC int64
				var i8Labels []int // int8 direct plan's; nil when the gate refused it
				var i8Err error
				for _, mode := range modes {
					t.Run(mode.name, func(t *testing.T) {
						// A fresh registration per cell: its store starts empty.
						if err := v.SetCalibrationFeatures(ds.X); err != nil {
							t.Fatal(err)
						}
						ws, err := v.PlanWith(n, mode.cfg)
						if mode.cfg.Precision == PrecisionInt8 {
							if err != nil && !errors.Is(err, ErrCalibrationFailed) {
								t.Fatalf("int8 plan failed for something other than its measured agreement: %v", err)
							}
							if mode.name == "int8" {
								i8Err = err
							} else if (err == nil) != (i8Err == nil) {
								t.Fatalf("gate admitted one int8 mode and refused the other: direct %v, tiled %v", i8Err, err)
							}
							if err != nil {
								t.Logf("refused: %v", err)
								return
							}
						} else if err != nil {
							t.Fatalf("PlanWith: %v", err)
						}
						defer ws.Release()
						reduced := mode.cfg.Precision == PrecisionInt8
						var scores *mat.Matrix
						var labels []int
						var ownLogits []float64
						var ownLabels []int
						for _, pass := range []struct {
							name   string
							x      *mat.Matrix
							reused bool
						}{
							{"own x", ownX, false},
							{"registered, first pass", ds.X, reduced},
							{"registered, second pass", ds.X, true},
						} {
							var bd InferenceBreakdown
							if labels, scores, bd, err = ws.PredictContext(context.Background(), pass.x, true); err != nil {
								t.Fatalf("%s: PredictContext: %v", pass.name, err)
							}
							if bd.BackboneReused != pass.reused {
								t.Fatalf("%s: BackboneReused = %v, want %v", pass.name, bd.BackboneReused, pass.reused)
							}
							if ownLabels == nil {
								ownLogits, ownLabels = append(ownLogits, scores.Data...), append(ownLabels, labels...)
							}
							for i, l := range labels {
								if l != ownLabels[i] {
									t.Fatalf("%s: label[%d] = %d, the own-x pass said %d", pass.name, i, l, ownLabels[i])
								}
							}
							for i, s := range scores.Data {
								if !reduced && math.Float64bits(s) != math.Float64bits(ownLogits[i]) {
									t.Fatalf("%s: logit %d = %x, the own-x pass computed %x", pass.name, i, math.Float64bits(s), math.Float64bits(ownLogits[i]))
								}
							}
						}
						requireStoreBitEqual(t, v.features.Load(), wantEmbs)
						if reduced {
							agree := 0
							for i, l := range labels {
								if l == wantLabels[i] {
									agree++
								}
							}
							t.Logf("admitted: %d/%d labels agree with fp64", agree, n)
							if float64(agree) < DefaultMinAgreement*float64(n) {
								t.Fatalf("admitted below the floor: %d/%d", agree, n)
							}
							if i8Labels == nil {
								i8Labels = append(i8Labels, labels...)
							}
							for i, l := range labels {
								if l != i8Labels[i] {
									t.Fatalf("label[%d] = %d, int8 direct plan says %d", i, l, i8Labels[i])
								}
							}
							return
						}
						for i, l := range labels {
							if l != wantLabels[i] {
								t.Fatalf("label[%d] = %d, Rectifier.Forward says %d", i, l, wantLabels[i])
							}
						}
						for i, s := range scores.Data {
							if math.Abs(s-wantLogits.Data[i]) > 1e-9 {
								t.Fatalf("logit %d = %g, Rectifier.Forward says %g", i, s, wantLogits.Data[i])
							}
						}
						if directLogits == nil {
							directLogits, directEPC = append(directLogits, scores.Data...), ws.EnclaveBytes()
							directLabels = append(directLabels, labels...)
						}
						for i, s := range scores.Data {
							if math.Float64bits(s) != math.Float64bits(directLogits[i]) {
								t.Fatalf("logit %d = %x, direct plan computed %x", i, math.Float64bits(s), math.Float64bits(directLogits[i]))
							}
						}
						if mode.cfg.EPCBudgetBytes > 0 {
							if epc := ws.EnclaveBytes(); epc > budget+scratchRow || epc >= directEPC {
								t.Fatalf("budgeted plan charges %d B: want <= budget %d + scratch row %d, and below the direct plan's %d", epc, budget, scratchRow, directEPC)
							}
						}
					})
				}
				t.Run("one-shot", func(t *testing.T) {
					for _, x := range []*mat.Matrix{ownX, ds.X} {
						labels, _, err := v.Predict(x)
						if err != nil {
							t.Fatalf("Predict: %v", err)
						}
						for i, l := range labels {
							if l != directLabels[i] {
								t.Fatalf("label[%d] = %d, direct plan says %d", i, l, directLabels[i])
							}
						}
						if used := v.Enclave.EPCUsed(); used != v.PersistentBytes() {
							t.Fatalf("Predict returned with %d B of EPC in use, persistent residents are %d B", used, v.PersistentBytes())
						}
					}
					filler := v.Enclave.EPCFree()
					if err := v.Enclave.Alloc(filler); err != nil {
						t.Fatal(err)
					}
					defer v.Enclave.Free(filler)
					if _, _, err := v.Predict(ownX); !errors.Is(err, enclave.ErrEPCExhausted) {
						t.Fatalf("Predict in a full enclave: err = %v, want ErrEPCExhausted", err)
					}
					if used := v.Enclave.EPCUsed(); used != v.PersistentBytes()+filler {
						t.Fatalf("refused Predict left %d B of EPC in use, want %d", used, v.PersistentBytes()+filler)
					}
				})
			})
		}
	}
}

// requireStoreBitEqual fails unless reg's public-half store is filled and
// holds exactly want — the reference embeddings in RequiredEmbeddings
// order — bit for bit.
func requireStoreBitEqual(t *testing.T, reg *registration, want []*mat.Matrix) {
	t.Helper()
	if reg == nil || reg.embs.Load() == nil {
		t.Fatal("the public-half store is empty")
	}
	kept := *reg.embs.Load()
	if len(kept) != len(want) {
		t.Fatalf("store holds %d blocks, want %d", len(kept), len(want))
	}
	for k, w := range want {
		if !kept[k].SameShape(w) {
			t.Fatalf("store block %d is %s, want %s", k, kept[k].Shape(), w.Shape())
		}
		for i, x := range kept[k].Data {
			if math.Float64bits(x) != math.Float64bits(w.Data[i]) {
				t.Fatalf("store block %d element %d = %x, Backbone.Embeddings computed %x", k, i, math.Float64bits(x), math.Float64bits(w.Data[i]))
			}
		}
	}
}

// TestDeployChargesTheOperatorRead: for every conv kind the adjacency a
// deployment charges is the one operator its compiled rectifier program
// references — GCN's Â, SAGE's mean, GAT's structure — built once and
// shared by every conv, not a GCN normalisation the program never reads
// beside private per-layer copies nobody priced.
func TestDeployChargesTheOperatorRead(t *testing.T) {
	for _, conv := range ConvKinds {
		t.Run(string(conv), func(t *testing.T) {
			ds, v := convTestVault(t, conv, Parallel, 1)
			op := v.op
			reads := 0
			for _, o := range v.rectifier.compileRectifier(ds.X.Rows, op, nil).Ops() {
				if o.CSR != nil {
					reads++
					if o.CSR != op {
						t.Fatalf("%s op aggregates over an operator other than the vault's", o.Kind)
					}
				}
			}
			if reads != len(v.rectifier.convs) {
				t.Fatalf("%d ops read an operator, want one per conv (%d)", reads, len(v.rectifier.convs))
			}
			if got, want := v.PersistentBytes(), v.rectifier.ParamBytes()+op.NumBytes(); got != want || v.Enclave.EPCUsed() != want {
				t.Fatalf("persistent charge %d B (%d B used), want parameters + the operator read = %d", got, v.Enclave.EPCUsed(), want)
			}
			if est := EnclaveMemoryEstimate(v.rectifier, v.Backbone.BlockDims, ds.X.Rows); est <= v.PersistentBytes() {
				t.Fatalf("memory estimate %d B does not cover the persistent residents %d B", est, v.PersistentBytes())
			}
		})
	}
}
