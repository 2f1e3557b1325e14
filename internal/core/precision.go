package core

import (
	"errors"
	"fmt"
	"strings"

	"gnnvault/internal/exec"
	"gnnvault/internal/mat"
)

// Precision tiers. A plan's Precision selects which kernels the
// in-enclave rectifier machine runs — the backbone stays fp64 in the
// normal world, and quantization happens once at the ECALL boundary — so
// EPC charge, spill traffic and transfer payload all shrink with the
// element width: int8 cuts every byte 8×, turning vaults inadmissible at
// fp64 into residents. There are two tiers: fp64 is exact at any EPC
// budget through tiling, int8 trades exactness for bytes. An int8 plan is
// always gated by plan-time calibration against the fp64 reference: like
// the DAC cost model's lookup-and-clamp precision tables, a requested
// tier outside what the deployment supports (or below the accuracy
// floor) is refused rather than silently degraded.

// Precision selects the element type of a plan's in-enclave machine.
type Precision uint8

// The precision vocabulary. PrecisionFP64 is the zero value: existing
// PlanConfig literals keep the reference engine.
const (
	PrecisionFP64 Precision = iota // float64 reference
	PrecisionInt8                  // calibrated symmetric int8, ⅛ the bytes
)

// ParsePrecision maps a user-facing precision name to its tier. The
// empty string means fp64; unknown names are refused, never clamped.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(s) {
	case "", "fp64", "f64", "float64":
		return PrecisionFP64, nil
	case "int8", "i8":
		return PrecisionInt8, nil
	}
	return 0, fmt.Errorf("core: unknown precision %q (want fp64 or int8)", s)
}

// String names the tier for flags, logs and benchmark rows.
func (p Precision) String() string { return p.Elem().String() }

// valid reports whether p is a known tier.
func (p Precision) valid() bool { return p <= PrecisionInt8 }

// Elem returns the exec element type of the tier.
func (p Precision) Elem() exec.Elem {
	if p == PrecisionInt8 {
		return exec.I8
	}
	return exec.F64
}

// ElemBytes returns the tier's element width in bytes — the factor the
// plan's tile sizing, payload and spill accounting price.
func (p Precision) ElemBytes() int64 { return int64(p.Elem().Size()) }

// DefaultMinAgreement is the argmax-agreement floor a reduced-precision
// plan must reach against the fp64 reference on the calibration batch
// when PlanConfig.MinAgreement is unset.
const DefaultMinAgreement = 0.99

// ErrCalibrationRequired is returned when an int8 plan is requested for
// a vault with no registered features: quantization scales are derived
// from a reference run, so there is nothing to derive them from. Register
// the deployment's public feature matrix with Vault.SetCalibrationFeatures
// first — the registered features are the calibration batch and the
// public-half store's memo key (store.go).
var ErrCalibrationRequired = errors.New("core: int8 plan needs calibration features (Vault.SetCalibrationFeatures)")

// ErrCalibrationFailed is returned when an int8 plan's argmax
// agreement with the fp64 reference falls below the configured
// floor. It is distinct from enclave.ErrEPCExhausted by design: the
// registry's admission loop evicts residents on EPC pressure, and an
// accuracy refusal must not trigger evictions.
var ErrCalibrationFailed = errors.New("core: reduced-precision plan below accuracy floor")

// minAgreement resolves the configured agreement floor.
func (c PlanConfig) minAgreement() float64 {
	if c.MinAgreement > 0 {
		return c.MinAgreement
	}
	return DefaultMinAgreement
}

// calibrateReduced derives an int8 plan's quantization state from the
// registered features reg: it takes the full-graph fp64 backbone's block
// embeddings of them from the public-half store — computing them first on
// bbMach (whose stable needed-block views are own) if no pass has filled
// it, so the first request after planning already hits — feeds them
// through the fp64 reference of the rectifier program, and returns the
// per-value per-column activation scales, the reference argmax labels,
// and the store's blocks. With nothing registered it fails with
// ErrCalibrationRequired: no plan is admitted unverified.
func calibrateReduced(reg *registration, prog *exec.Program, bbMach *exec.Machine, own []*mat.Matrix, cfg PlanConfig) ([][]float64, []int, []*mat.Matrix, error) {
	if reg == nil {
		return nil, nil, nil, ErrCalibrationRequired
	}
	reg.embeddings(reg.x, bbMach, make([]*mat.Matrix, 1), own)
	embs := *reg.embs.Load() // published by the pass above, if by none before it
	scales, ref, err := exec.CalibrateScales(prog, reg.x.Rows, embs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: calibrating %s plan: %w", cfg.Precision, err)
	}
	return scales, ref, embs, nil
}

// checkAgreement runs the int8 machine over reg's stored embeddings embs
// and compares its argmax labels against the fp64 reference, failing with
// ErrCalibrationFailed below the configured floor. The machine's buffers
// are scratched, except that its boundary buffers are left holding the
// store's codes, declared as such — so the first registered-features
// request on a plan machine skips its boundary quantisation too;
// plan-time only.
func checkAgreement(mach *exec.Machine, reg *registration, embs []*mat.Matrix, ref []int, cfg PlanConfig) error {
	labels := make([]int, reg.x.Rows)
	reg.declareInputs(mach, true)
	mach.Run(len(labels), embs, labels)
	return agreementFloor(labels, ref, cfg)
}

// agreementFloor compares int8 argmax labels against the
// fp64 reference and enforces the configured floor. Shared by the
// subgraph planner's single-machine gate above and the full-graph fleet's
// round (Workspace.agree), which runs every part concurrently.
func agreementFloor(labels, ref []int, cfg PlanConfig) error {
	agree := 0
	for i, l := range labels {
		if l == ref[i] {
			agree++
		}
	}
	frac := 1.0
	if len(labels) > 0 {
		frac = float64(agree) / float64(len(labels))
	}
	if floor := cfg.minAgreement(); frac < floor {
		return fmt.Errorf("%w: %s agrees with fp64 on %.4f of calibration nodes, floor %.4f", ErrCalibrationFailed, cfg.Precision, frac, floor)
	}
	return nil
}
