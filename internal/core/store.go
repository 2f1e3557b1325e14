package core

import (
	"fmt"
	"sync/atomic"

	"gnnvault/internal/exec"
	"gnnvault/internal/mat"
)

// The public-half store. A deployed backbone's three inputs — public
// weights, public substitute graph, public features — are deploy-time
// constants on the serving surface, so the block embeddings the rectifier
// consumes are one too. Each SetCalibrationFeatures call creates one
// immutable registration; the first full-height backbone pass over the
// registered matrix publishes its RequiredEmbeddings blocks into it, and
// every later pass over that same matrix reads them instead of running the
// backbone. DESIGN.md ("Public-half store") has the argument in full.

// registration is one SetCalibrationFeatures call: the registered matrix
// and a set-once slot for the backbone's embeddings of it. Its identity is
// the feature epoch — a pass loads the current registration once, at entry,
// and reads and publishes only through that pointer, so a pass straddling a
// re-registration can at worst fill a record nobody loads any more. There
// is no counter and no lock to get wrong.
type registration struct {
	x *mat.Matrix
	// embs holds the RequiredEmbeddings blocks of x in that order, in
	// vault-owned normal-world memory (never EPC). Nil until the first pass
	// over x publishes; immutable afterwards — machines only read their
	// inputs.
	embs atomic.Pointer[[]*mat.Matrix]
}

// newRegistration validates x against a deployment of n nodes and dim
// input features and wraps it in a fresh, empty registration. A nil x
// yields a nil registration: nothing registered.
func newRegistration(x *mat.Matrix, n, dim int) (*registration, error) {
	if x == nil {
		return nil, nil
	}
	if x.Rows != n {
		return nil, fmt.Errorf("core: calibration features %d rows != deployed graph nodes %d", x.Rows, n)
	}
	if x.Cols != dim {
		return nil, fmt.Errorf("core: calibration features %d cols != backbone feature dim %d", x.Cols, dim)
	}
	return &registration{x: x}, nil
}

// embeddings returns the backbone's RequiredEmbeddings blocks of x, in
// that order, and whether they were reused rather than computed. A hit
// needs x to *be* the registered matrix and a pass to have published; any
// other call runs bbMach over x exactly as an unregistered vault would and
// returns own — bbMach's stable views of the same blocks — after copying
// them into the registration if x is its matrix and it is still empty
// (that one publishing pass per registration allocates; hits and misses on
// a caller's own x do not). bbIn is bbMach's reusable one-entry input
// list. r may be nil.
func (r *registration) embeddings(x *mat.Matrix, bbMach *exec.Machine, bbIn, own []*mat.Matrix) ([]*mat.Matrix, bool) {
	registered := r != nil && r.x == x
	if registered {
		if kept := r.embs.Load(); kept != nil {
			return *kept, true
		}
	}
	bbIn[0] = x
	bbMach.Run(x.Rows, bbIn, nil)
	if registered && r.embs.Load() == nil {
		kept := make([]*mat.Matrix, len(own))
		for k, m := range own {
			kept[k] = m.Clone()
		}
		r.embs.CompareAndSwap(nil, &kept)
	}
	return own, false
}

// declareInputs tells a rectifier machine, before the Run that reads
// them, whether its inputs are r's stored blocks (reused: the pass read
// the store, or planning is running over it) or embeddings computed for
// this call. An int8 machine keys its boundary codes on the record
// (exec.Machine.SetInputEpoch): the store's blocks never change, so a
// machine that quantised them once does not again, while a computed
// pass — a caller's own x above all, whose buffers are rewritten every
// call — always quantises. The key is the record, never a matrix pointer,
// and a re-registration is a new record. r may be nil (then reused is
// false); the untyped nil below is deliberate — a nil *registration in
// the interface would read as a record.
func (r *registration) declareInputs(m *exec.Machine, reused bool) {
	if reused {
		m.SetInputEpoch(r)
	} else {
		m.SetInputEpoch(nil)
	}
}

// SetCalibrationFeatures registers the deployed graph's public feature
// matrix. The registered features are two things at once:
//
//   - the calibration batch: every int8 planner runs the fp64 reference on
//     them, derives its activation scales, and refuses a plan whose argmax
//     agreement falls below the floor;
//   - the memo key of the public-half store: a full-graph pass whose input
//     *is* this matrix (pointer identity) reuses the backbone embeddings
//     the first such pass computed, and skips the backbone.
//
// The matrix is shared, not copied — serving code passes the same features
// it predicts with — and must not be modified while registered. Each call
// starts a fresh, empty store, so publishing a feature update, in place or
// as a new matrix, is calling SetCalibrationFeatures again (edit in place
// without re-registering and registered-features passes keep answering for
// the old contents). Int8 plans made earlier keep the scales they were
// calibrated with. A nil x clears the registration and frees the store:
// int8 plans then fail with ErrCalibrationRequired and every pass runs its
// backbone.
func (v *Vault) SetCalibrationFeatures(x *mat.Matrix) error {
	reg, err := newRegistration(x, v.privateGraph.N(), v.Backbone.FeatureDim)
	if err != nil {
		return err
	}
	v.features.Store(reg)
	return nil
}

// EmbeddingStoreBytes returns the normal-world bytes the vault's
// public-half store holds: Σ RequiredEmbeddings block width × nodes × 8
// once a pass over the registered features has filled it, 0 before that
// and with nothing registered. Never EPC.
func (v *Vault) EmbeddingStoreBytes() int64 {
	reg := v.features.Load()
	if reg == nil {
		return 0
	}
	kept := reg.embs.Load()
	if kept == nil {
		return 0
	}
	var n int64
	for _, m := range *kept {
		n += m.NumBytes()
	}
	return n
}
