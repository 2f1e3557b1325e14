package core

import (
	"errors"
	"fmt"
	"testing"

	"gnnvault/internal/enclave"
	"gnnvault/internal/exec"
)

// TestBufferPlanChargesPeakLive holds the direct fp64 EPC charge of the
// 600-node cora M1 GCN vaults to pinned figures, each of which is the
// transferred payload plus the rectifier program's peak live bytes — the
// most bytes of values live across any one op, computed below by a sweep
// of the test's own over the fused op list. Values share buffers by
// liveness, so the charge is what is live at once; a buffer per value
// charged parallel 3 360 000, series 1 756 800 and cascaded 3 206 400 B.
//
// Every plan it makes also passes exec's storage proof (NewMachine refuses
// a buffer plan that puts an op's destination over a source, the residual
// or a value live across the op): the backbone and rectifier programs of
// each plan mode of TestPlanModesMatchReference, and the sharded GCN
// rectifier — halo destinations hosting their sources — direct and tiled
// at both element types.
func TestBufferPlanChargesPeakLive(t *testing.T) {
	pins := map[RectifierDesign]int64{Parallel: 2184000, Series: 1382400, Cascaded: 2217600}
	modes := []PlanConfig{
		{},
		{TileRows: 97},
		{EPCBudgetBytes: 1 << 20},
		{Precision: PrecisionInt8},
		{Precision: PrecisionInt8, TileRows: 97},
	}
	for _, design := range Designs {
		t.Run(string(design), func(t *testing.T) {
			ds, v := convTestVault(t, ConvGCN, design, 1)
			n := ds.X.Rows
			if err := v.SetCalibrationFeatures(ds.X); err != nil {
				t.Fatal(err)
			}
			for _, cfg := range modes {
				ws, err := v.PlanWith(n, cfg)
				if errors.Is(err, ErrCalibrationFailed) {
					continue
				}
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				if cfg == (PlanConfig{}) {
					payload, peak := int64(0), peakLiveBytes(v.rectifier.compileRectifier(n, v.op, nil), v.rectifier.BackboneDims, v.rectifier.RequiredEmbeddings())
					for _, i := range v.rectifier.RequiredEmbeddings() {
						payload += int64(v.Backbone.BlockDims[i]) * int64(n) * 8
					}
					if got := ws.EnclaveBytes(); got != pins[design] || got != payload+peak {
						t.Errorf("direct fp64 charge %d B, want the pinned %d = payload %d + peak live %d", got, pins[design], payload, peak)
					}
				}
				ws.Release()
			}

			sv, err := DeploySharded(v.Backbone, v.rectifier, ds.Graph, enclave.DefaultCostModel(), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Undeploy()
			if sv.partition.HaloCols() == 0 {
				t.Fatal("the 2-shard partition has no halo columns")
			}
			if err := sv.SetCalibrationFeatures(ds.X); err != nil {
				t.Fatal(err)
			}
			for _, cfg := range modes[:2] {
				for _, prec := range []Precision{PrecisionFP64, PrecisionInt8} {
					cfg.Precision = prec
					ws, err := sv.PlanSharded(n, cfg)
					if errors.Is(err, ErrCalibrationFailed) {
						continue
					}
					if err != nil {
						t.Fatalf("sharded %+v: %v", cfg, err)
					}
					ws.Release()
				}
			}
		})
	}
}

// peakLiveBytes sweeps a fused fp64 rectifier program: a value is live
// from the op that writes it to the last op that reads it (the output,
// which Argmax reads last, to the end), and the peak is the largest sum
// of live value bytes at any op. Inputs — the transferred embeddings,
// value ids 0… in RequiredEmbeddings order — are the payload's, not
// counted. Widths follow from the ops alone.
func peakLiveBytes(p *exec.Program, dims, needed []int) int64 {
	ops := p.Ops()
	width := map[int]int{}
	for k, i := range needed {
		width[k] = dims[i]
	}
	first, last := map[int]int{}, map[int]int{}
	for i, op := range ops {
		for _, s := range op.Srcs {
			last[s] = i
		}
		if op.Epi.Res >= 0 {
			last[op.Epi.Res] = i
		}
		if op.Dst < 0 {
			continue
		}
		switch op.Kind {
		case exec.OpMatMul:
			width[op.Dst] = op.W.Cols
		case exec.OpConcat:
			width[op.Dst] = 0
			for _, s := range op.Srcs {
				width[op.Dst] += width[s]
			}
		case exec.OpAttn:
			width[op.Dst] = width[op.Srcs[2]]
		case exec.OpSpMM, exec.OpAddBias, exec.OpReLU, exec.OpAdd:
			width[op.Dst] = width[op.Srcs[0]]
		default:
			panic(fmt.Sprintf("peakLiveBytes: op kind %s", op.Kind))
		}
		if _, ok := first[op.Dst]; !ok {
			first[op.Dst] = i
		}
		last[op.Dst] = max(last[op.Dst], i)
	}
	peak := int64(0)
	for i := range ops {
		live := int64(0)
		for v, f := range first {
			if f <= i && i <= last[v] {
				live += int64(p.MaxRows) * int64(width[v]) * 8
			}
		}
		peak = max(peak, live)
	}
	return peak
}
