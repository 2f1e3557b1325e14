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
// always gated by calibration against the fp64 reference, taken once per
// registration (calibration, below): like
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

// calibration is a registration's int8 calibration, taken by the first
// int8 plan of any kind on it and read by every later one: the per-value
// per-column activation scales of the unsharded rectifier program over the
// vault's private operator (exec.CalibrateScales on the store's embeddings
// of the registered features), and on how many nodes a direct int8 run
// under those scales labels as the fp64 reference does. Its inputs — the
// registered features, the rectifier and the private operator — are fixed
// for as long as the registration lives, and int8 labels are bit-identical
// across direct, tiled and sharded plans, so one figure admits or refuses
// them all. It is enclave-side state: the scales never leave it, and a
// refusal names only the precision and the floor, never the figure.
type calibration struct {
	scales [][]float64
	agree  int
}

// int8Scales returns the int8 activation scales of reg's calibration,
// taking it first if no plan has (calibrate), once the calibration's
// agreement reaches cfg's floor. With nothing registered it fails with
// ErrCalibrationRequired and below the floor with ErrCalibrationFailed: no
// plan is admitted unverified. bbMach and own, a full-height backbone
// machine and its stable views of the RequiredEmbeddings blocks, fill the
// store if it is empty; nil plans one for that.
func int8Scales(v *Vault, reg *registration, bbMach *exec.Machine, own []*mat.Matrix, cfg PlanConfig) ([][]float64, error) {
	if reg == nil {
		return nil, ErrCalibrationRequired
	}
	c := reg.calib.Load()
	if c == nil {
		fresh, err := calibrate(v, reg, bbMach, own)
		if err != nil {
			return nil, fmt.Errorf("core: calibrating %s plan: %w", cfg.Precision, err)
		}
		reg.calib.CompareAndSwap(nil, fresh)
		c = reg.calib.Load()
	}
	frac := 1.0
	if n := reg.x.Rows; n > 0 {
		frac = float64(c.agree) / float64(n)
	}
	if floor := cfg.minAgreement(); frac < floor {
		return nil, fmt.Errorf("%w: %s plan under the agreement floor %.4f", ErrCalibrationFailed, cfg.Precision, floor)
	}
	return c.scales, nil
}

// calibrate takes reg's calibration on v: the store's embeddings of the
// registered features (computed on bbMach, or on a backbone planned here,
// if no pass has published them, so the first request after planning
// already hits), the fp64 reference of the unsharded rectifier program
// over them, and one direct int8 run under the derived scales.
func calibrate(v *Vault, reg *registration, bbMach *exec.Machine, own []*mat.Matrix) (*calibration, error) {
	n := reg.x.Rows
	if reg.embs.Load() == nil {
		if bbMach == nil {
			needed := v.rectifier.RequiredEmbeddings()
			bb, blocks, err := v.Backbone.planBackbone(n, v.Backbone.adj, needed, exec.Config{})
			if err != nil {
				return nil, err
			}
			bbMach, own = bb, selectEmbeddings(blocks, needed)
		}
		reg.embeddings(reg.x, bbMach, make([]*mat.Matrix, 1), own)
	}
	embs := *reg.embs.Load() // published by the pass above, if by none before it
	prog := v.rectifier.compileRectifier(n, v.op, nil)
	scales, ref, err := exec.CalibrateScales(prog, n, embs)
	if err != nil {
		return nil, err
	}
	m, err := prog.NewMachine(exec.Config{Workers: 1, Elem: exec.I8, Scales: scales})
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	m.Run(n, embs, labels)
	c := &calibration{scales: scales}
	for i, l := range labels {
		if l == ref[i] {
			c.agree++
		}
	}
	return c, nil
}
