package gnnvault_test

import (
	"testing"

	"gnnvault/internal/core"
)

// BenchmarkVaultPredictInto is BenchmarkVaultPredict over a planned
// workspace: the steady-state serving hot path. Compare B/op and allocs/op
// against BenchmarkVaultPredict to see what the execution-plan refactor
// buys. Three legs per design, because what a pass costs depends on whose
// features it is given:
//
//   - own-x: the vault has registered nothing, so every pass runs the
//     backbone — the full pass, and the leg that keeps backbone kernel
//     work on this trajectory;
//   - registered: the vault has registered ds.X and a pass has filled its
//     public-half store, so every measured pass skips the backbone;
//   - reregister-every-8: the price of a feature update, amortised. One op
//     is one SetCalibrationFeatures plus eight passes — the first runs the
//     backbone and copies its blocks into the fresh store (it allocates),
//     seven read it — and ns/call is that divided by eight.
func BenchmarkVaultPredictInto(b *testing.B) {
	for _, design := range core.Designs {
		ds, vault := deployedVault(b, design)
		predict := func(b *testing.B, ws *core.Workspace) {
			if _, _, err := vault.PredictInto(ds.X, ws); err != nil {
				b.Fatal(err)
			}
		}
		// The deployed vaults are shared with the other benchmarks, which
		// measure the full pass: every leg leaves nothing registered.
		register := func(b *testing.B) {
			if err := vault.SetCalibrationFeatures(ds.X); err != nil {
				b.Fatal(err)
			}
		}
		unregister := func() { _ = vault.SetCalibrationFeatures(nil) } // nil is always accepted
		for _, leg := range []struct {
			name string
			run  func(b *testing.B, ws *core.Workspace)
		}{
			{"own-x", func(b *testing.B, ws *core.Workspace) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					predict(b, ws)
				}
			}},
			{"registered", func(b *testing.B, ws *core.Workspace) {
				register(b)
				defer unregister()
				predict(b, ws) // the publishing pass
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					predict(b, ws)
				}
			}},
			{"reregister-every-8", func(b *testing.B, ws *core.Workspace) {
				defer unregister()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					register(b)
					for call := 0; call < 8; call++ {
						predict(b, ws)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(8*b.N), "ns/call")
			}},
		} {
			b.Run(string(design)+"/"+leg.name, func(b *testing.B) {
				ws, err := vault.Plan(ds.X.Rows)
				if err != nil {
					b.Fatal(err)
				}
				defer ws.Release()
				b.ReportAllocs()
				leg.run(b, ws)
			})
		}
	}
}
