// Package enclave is a software model of an Intel SGX trusted enclave, the
// substitution for the paper's real SGX deployment (see DESIGN.md).
//
// The model captures the three SGX properties that drive the paper's
// real-world results:
//
//  1. Capacity — the Enclave Page Cache is limited (96 MB of the 128 MB
//     PRM); allocations are accounted and exceeding the EPC incurs a
//     per-page swap penalty, reproducing the "full GNN does not fit"
//     argument of Sec. III-C and Fig. 6 (bottom).
//  2. Transition cost — every ECALL crosses the world boundary, paying a
//     fixed switch latency plus a per-byte marshalling + memory-encryption
//     cost, reproducing the transfer component of Fig. 6 (top).
//  3. Confidentiality — enclave state is sealed at rest (AES-GCM) with a
//     key derived from the enclave measurement (SHA-256 of its initial
//     contents), and the public API makes it impossible to read enclave
//     memory from the untrusted side.
//
// Time is modelled, not measured: every operation adds to a deterministic
// cost ledger, so experiments are reproducible on any host. The one
// measured entry is in-enclave compute: Ecall bills its body's thread CPU
// time, scaled by ComputeSlowdown.
package enclave

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// CostModel holds the SGX cost constants used by the simulator. Defaults
// follow published measurements for client SGX parts (Skylake-era, as in
// the paper's i7-7700 testbed).
type CostModel struct {
	// ECallLatency is the fixed cost of an enclave transition (world
	// switch, TLB flush). ~8 µs on the paper's hardware generation.
	ECallLatency time.Duration
	// OCallLatency is the fixed cost of an outside call from the enclave.
	OCallLatency time.Duration
	// TransferBytesPerSec is the throughput of copying data across the
	// boundary, including the MEE encryption on EPC writes (~2 GB/s).
	TransferBytesPerSec float64
	// EPCBytes is the usable Enclave Page Cache (96 MB on SGX1).
	EPCBytes int64
	// PageBytes is the EPC page granularity.
	PageBytes int64
	// PageSwapLatency is the cost of evicting + reloading one EPC page
	// (encryption, integrity tree update). ~40 µs.
	PageSwapLatency time.Duration
	// ComputeSlowdown scales in-enclave compute time relative to the
	// normal world (MEE overhead on memory-bound kernels, no AVX-512
	// license, single-threaded enclave). ~1.2×.
	ComputeSlowdown float64
}

// DefaultCostModel returns the SGX1 client-platform constants used
// throughout the experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		ECallLatency:        8 * time.Microsecond,
		OCallLatency:        8 * time.Microsecond,
		TransferBytesPerSec: 2e9,
		EPCBytes:            96 << 20,
		PageBytes:           4096,
		PageSwapLatency:     40 * time.Microsecond,
		ComputeSlowdown:     1.2,
	}
}

// Ledger accumulates the modelled costs of everything an enclave did.
type Ledger struct {
	ECalls        int
	OCalls        int
	BytesIn       int64
	BytesOut      int64
	PageSwaps     int64
	TransitionNs  int64 // modelled world-switch time
	TransferNs    int64 // modelled marshalling/encryption time
	PagingNs      int64 // modelled EPC paging time
	ComputeNs     int64 // in-enclave compute (ECALL body thread CPU, then scaled)
	PeakEPCBytes  int64
	AllocFailures int
}

// Add returns the sum of two enclaves' ledgers: every count and modelled
// time summed, PeakEPCBytes the busier enclave's — each has its own EPC.
func (l Ledger) Add(o Ledger) Ledger {
	l.ECalls += o.ECalls
	l.OCalls += o.OCalls
	l.BytesIn += o.BytesIn
	l.BytesOut += o.BytesOut
	l.PageSwaps += o.PageSwaps
	l.TransitionNs += o.TransitionNs
	l.TransferNs += o.TransferNs
	l.PagingNs += o.PagingNs
	l.ComputeNs += o.ComputeNs
	l.AllocFailures += o.AllocFailures
	l.PeakEPCBytes = max(l.PeakEPCBytes, o.PeakEPCBytes)
	return l
}

// TransferTime returns the total modelled boundary-crossing time.
func (l Ledger) TransferTime() time.Duration {
	return time.Duration(l.TransitionNs + l.TransferNs)
}

// EnclaveTime returns modelled in-enclave time (compute + paging).
func (l Ledger) EnclaveTime() time.Duration {
	return time.Duration(l.ComputeNs + l.PagingNs)
}

// Total returns the full modelled enclave-side cost.
func (l Ledger) Total() time.Duration {
	return l.TransferTime() + l.EnclaveTime()
}

// ErrEPCExhausted is returned when an allocation would exceed the hard EPC
// budget and paging is disabled.
var ErrEPCExhausted = errors.New("enclave: EPC exhausted")

// Enclave models one trusted compartment: an EPC allocator, a cost ledger,
// a measurement, and a sealing identity.
//
// EPC accounting and the ledger are goroutine-safe so one enclave can
// serve a pool of inference workers, and can host several deployed vaults
// at once (core.DeployInto + internal/registry — the paper's edge device
// answering a request stream for many models). Ecall bodies themselves run
// on the calling goroutine
// without holding the lock — in-enclave code must still be single-threaded
// per call, and bodies may re-enter Alloc/Free.
type Enclave struct {
	mu          sync.Mutex
	cost        CostModel
	epcUsed     int64
	ledger      Ledger
	measurement [32]byte
	sealKey     []byte
	// AllowPaging selects the EPC-overflow policy: if true, allocations
	// beyond EPCBytes succeed but pay PageSwapLatency per page on every
	// subsequent touch; if false they fail with ErrEPCExhausted.
	AllowPaging bool

	// Fault-injection state (fault.go): the installed plan, the ECALL
	// ordinal counter it schedules against, the seeded random-abort
	// stream, and the crashed flag — once lost, every ECALL fails with
	// ErrEnclaveLost until the deployment replaces the enclave.
	fault      *FaultPlan
	faultCalls int64
	faultRNG   *rand.Rand
	lost       bool
}

// New creates an enclave with the given cost model and an initial
// measurement over initContents (the code+data the loader would hash into
// MRENCLAVE). The sealing key is derived from the measurement.
func New(cost CostModel, initContents ...[]byte) *Enclave {
	e := &Enclave{cost: cost}
	e.measurement = Measure(initContents...)
	e.sealKey = DeriveSealKey(e.measurement)
	return e
}

// Measurement returns the enclave's MRENCLAVE-analogue.
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// Ledger returns a snapshot of the accumulated cost ledger.
func (e *Enclave) Ledger() Ledger {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ledger
}

// ResetLedger clears the cost counters (EPC usage is preserved).
func (e *Enclave) ResetLedger() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ledger = Ledger{PeakEPCBytes: e.epcUsed}
}

// ResetPeak rebases the ledger's EPC peak to the current usage without
// touching any other counter. Inference paths call it per request so
// PeakEPCBytes reports the call's own high-water mark; when several
// requests share the enclave concurrently the peak is a property of the
// enclave, not of one call.
func (e *Enclave) ResetPeak() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ledger.PeakEPCBytes = e.epcUsed
}

// EPCUsed returns the current accounted EPC allocation.
func (e *Enclave) EPCUsed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epcUsed
}

// EPCLimit returns the configured EPC capacity.
func (e *Enclave) EPCLimit() int64 { return e.cost.EPCBytes }

// EPCFree returns the unallocated EPC headroom. With paging enabled usage
// may exceed capacity, in which case EPCFree reports zero.
func (e *Enclave) EPCFree() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if free := e.cost.EPCBytes - e.epcUsed; free > 0 {
		return free
	}
	return 0
}

// Alloc accounts an allocation of n bytes of enclave memory. If the
// allocation pushes usage beyond the EPC and paging is disabled, it fails;
// with paging enabled it succeeds and the overflow is charged as page
// swaps.
func (e *Enclave) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("enclave: negative allocation %d", n)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	capacity := e.cost.EPCBytes - e.squeezeLocked()
	newUsed := e.epcUsed + n
	if newUsed > capacity {
		if !e.AllowPaging {
			e.ledger.AllocFailures++
			return fmt.Errorf("%w: %d + %d > %d", ErrEPCExhausted, e.epcUsed, n, capacity)
		}
		over := newUsed - capacity
		pages := (over + e.cost.PageBytes - 1) / e.cost.PageBytes
		e.ledger.PageSwaps += pages
		e.ledger.PagingNs += pages * e.cost.PageSwapLatency.Nanoseconds()
	}
	e.epcUsed = newUsed
	if e.epcUsed > e.ledger.PeakEPCBytes {
		e.ledger.PeakEPCBytes = e.epcUsed
	}
	return nil
}

// Free releases n bytes of accounted enclave memory.
func (e *Enclave) Free(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 || n > e.epcUsed {
		panic(fmt.Sprintf("enclave: bad free %d (used %d)", n, e.epcUsed))
	}
	e.epcUsed -= n
}

// Ecall models a call into the enclave carrying payloadBytes of input and
// returning resultBytes — one transition each way plus the marshalling
// time of both — then runs fn and charges, scaled by ComputeSlowdown, the
// CPU time fn's thread consumed.
//
// This is the enclave's one clock. The calling goroutine is pinned to its
// OS thread for the call and billed on that thread's CPU clock
// (threadCPUNs), so only the body's own cycles count: time it spends
// preempted (another request's slices on a shared host) or parked (a
// fleet shard at its barriers while peers compute, which real
// multi-enclave hardware would overlap) is not. Work fn hands to other
// goroutines is not billed either, so in-enclave code is single-threaded
// (an exec machine planned with Workers: 1); multi-thread enclave work is
// a shard fleet, one ECALL per shard.
//
// When a FaultPlan aborts the call (or the enclave is already lost), fn
// never runs, nothing is charged, and the error wraps ErrEnclaveLost.
func (e *Enclave) Ecall(payloadBytes, resultBytes int64, fn func() error) error {
	e.mu.Lock()
	if err := e.faultECallLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	e.ledger.ECalls++
	e.ledger.BytesIn += payloadBytes
	e.ledger.BytesOut += resultBytes
	e.ledger.TransitionNs += e.cost.ECallLatency.Nanoseconds() + e.cost.OCallLatency.Nanoseconds()
	if e.cost.TransferBytesPerSec > 0 {
		ns := float64(payloadBytes+resultBytes) / e.cost.TransferBytesPerSec * 1e9
		e.ledger.TransferNs += int64(ns)
	}
	e.mu.Unlock()

	// fn runs without the lock so it may re-enter Alloc/Free (and so a slow
	// body does not block unrelated ledger reads).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUNs()
	err := fn()
	busy := threadCPUNs() - start
	e.mu.Lock()
	e.ledger.ComputeNs += int64(float64(busy) * e.cost.ComputeSlowdown)
	e.mu.Unlock()
	return err
}

// Ocall models a call out of the enclave (fixed transition cost only).
func (e *Enclave) Ocall() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ledger.OCalls++
	e.ledger.TransitionNs += e.cost.OCallLatency.Nanoseconds()
}
