package enclave

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func testEnclave() *Enclave {
	return New(DefaultCostModel(), []byte("rectifier-code"), []byte("graph"))
}

func TestMeasureDeterministic(t *testing.T) {
	a := Measure([]byte("x"), []byte("y"))
	b := Measure([]byte("x"), []byte("y"))
	if a != b {
		t.Fatal("measurement not deterministic")
	}
}

func TestMeasureLengthPrefixed(t *testing.T) {
	// ("ab", "c") and ("a", "bc") must measure differently.
	if Measure([]byte("ab"), []byte("c")) == Measure([]byte("a"), []byte("bc")) {
		t.Fatal("measurement collides across partition boundaries")
	}
}

func TestMeasureOrderSensitive(t *testing.T) {
	if Measure([]byte("a"), []byte("b")) == Measure([]byte("b"), []byte("a")) {
		t.Fatal("measurement ignores order")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e := testEnclave()
	secret := []byte("private adjacency matrix in COO format")
	blob, err := e.Seal(secret)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(blob, secret) {
		t.Fatal("sealed blob contains plaintext")
	}
	got, err := e.Unseal(blob)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("unsealed data differs")
	}
}

func TestUnsealWrongEnclaveFails(t *testing.T) {
	e1 := New(DefaultCostModel(), []byte("enclave-one"))
	e2 := New(DefaultCostModel(), []byte("enclave-two"))
	blob, err := e1.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Unseal(blob); err == nil {
		t.Fatal("enclave with different measurement unsealed the blob")
	}
}

func TestUnsealTamperedBlobFails(t *testing.T) {
	e := testEnclave()
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 1
	if _, err := e.Unseal(blob); err == nil {
		t.Fatal("tampered blob unsealed")
	}
}

func TestUnsealShortBlobFails(t *testing.T) {
	e := testEnclave()
	if _, err := e.Unseal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob unsealed")
	}
}

func TestSealNondeterministicNonce(t *testing.T) {
	e := testEnclave()
	b1, _ := e.Seal([]byte("x"))
	b2, _ := e.Seal([]byte("x"))
	if bytes.Equal(b1, b2) {
		t.Fatal("two seals of the same plaintext are identical (nonce reuse)")
	}
}

func TestAllocWithinEPC(t *testing.T) {
	e := testEnclave()
	if err := e.Alloc(1 << 20); err != nil {
		t.Fatalf("Alloc 1MB: %v", err)
	}
	if e.EPCUsed() != 1<<20 {
		t.Fatalf("EPCUsed = %d", e.EPCUsed())
	}
	e.Free(1 << 20)
	if e.EPCUsed() != 0 {
		t.Fatalf("EPCUsed after free = %d", e.EPCUsed())
	}
}

func TestAllocBeyondEPCFailsWithoutPaging(t *testing.T) {
	e := testEnclave()
	err := e.Alloc(e.EPCLimit() + 1)
	if !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("err = %v, want ErrEPCExhausted", err)
	}
	if e.Ledger().AllocFailures != 1 {
		t.Fatal("failure not recorded")
	}
}

func TestAllocBeyondEPCPagesWithPaging(t *testing.T) {
	e := testEnclave()
	e.AllowPaging = true
	if err := e.Alloc(e.EPCLimit() + 8192); err != nil {
		t.Fatalf("paged alloc failed: %v", err)
	}
	l := e.Ledger()
	if l.PageSwaps != 2 {
		t.Fatalf("PageSwaps = %d, want 2 (8192/4096)", l.PageSwaps)
	}
	if l.PagingNs != 2*DefaultCostModel().PageSwapLatency.Nanoseconds() {
		t.Fatalf("PagingNs = %d", l.PagingNs)
	}
}

func TestAllocNegativeFails(t *testing.T) {
	e := testEnclave()
	if err := e.Alloc(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	e := testEnclave()
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	e.Free(1)
}

func TestPeakEPCTracked(t *testing.T) {
	e := testEnclave()
	e.Alloc(100) //nolint:errcheck
	e.Alloc(200) //nolint:errcheck
	e.Free(250)
	if e.Ledger().PeakEPCBytes != 300 {
		t.Fatalf("peak = %d, want 300", e.Ledger().PeakEPCBytes)
	}
}

// spinCPU burns the calling thread's CPU until its own clock has advanced
// by ns.
func spinCPU(ns int64) {
	for start := threadCPUNs(); threadCPUNs()-start < ns; {
	}
}

func TestEcallLedger(t *testing.T) {
	e := testEnclave()
	ran := false
	err := e.Ecall(1000, 10, func() error {
		ran = true
		spinCPU(2e6)
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("Ecall err=%v ran=%v", err, ran)
	}
	l := e.Ledger()
	if l.ECalls != 1 || l.BytesIn != 1000 || l.BytesOut != 10 {
		t.Fatalf("ledger = %+v", l)
	}
	if l.TransitionNs != (8000 + 8000) {
		t.Fatalf("TransitionNs = %d", l.TransitionNs)
	}
	wantTransfer := int64(float64(l.BytesIn+l.BytesOut) / 2e9 * 1e9)
	if l.TransferNs != wantTransfer {
		t.Fatalf("TransferNs = %d, want %d", l.TransferNs, wantTransfer)
	}
	// Compute is the body's own thread CPU (≥ 2 ms of spinning) scaled by
	// 1.2; the upper bound allows 1 ms of clock reads and scheduling on
	// the pinned thread.
	if l.ComputeNs < int64(2.4e6) || l.ComputeNs > int64(3.6e6) {
		t.Fatalf("ComputeNs = %d, want in [2.4ms, 3.6ms]", l.ComputeNs)
	}
}

// TestEcallDoesNotBillParkedTime pins the barrier exclusion: a body parked
// on a channel — as a fleet shard is at its barriers while peers compute —
// consumes no CPU on its pinned thread and is billed (almost) nothing.
func TestEcallDoesNotBillParkedTime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no per-thread CPU clock: the wall-clock fallback bills parked time")
	}
	e := testEnclave()
	err := e.Ecall(0, 0, func() error {
		ch := make(chan struct{})
		time.AfterFunc(5*time.Millisecond, func() { close(ch) })
		<-ch
		return nil
	})
	if err != nil {
		t.Fatalf("Ecall: %v", err)
	}
	if c := e.Ledger().ComputeNs; c >= int64(0.5e6) {
		t.Fatalf("ComputeNs = %d for a body parked 5 ms, want < 0.5ms", c)
	}
}

func TestEcallPropagatesError(t *testing.T) {
	e := testEnclave()
	want := errors.New("boom")
	if err := e.Ecall(0, 0, func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestOcall(t *testing.T) {
	e := testEnclave()
	e.Ocall()
	if e.Ledger().OCalls != 1 || e.Ledger().TransitionNs != 8000 {
		t.Fatalf("ledger = %+v", e.Ledger())
	}
}

func TestLedgerTotals(t *testing.T) {
	l := Ledger{TransitionNs: 100, TransferNs: 200, PagingNs: 300, ComputeNs: 400}
	if l.TransferTime() != 300*time.Nanosecond {
		t.Fatalf("TransferTime = %v", l.TransferTime())
	}
	if l.EnclaveTime() != 700*time.Nanosecond {
		t.Fatalf("EnclaveTime = %v", l.EnclaveTime())
	}
}

func TestAttestationRoundTrip(t *testing.T) {
	e := testEnclave()
	var data [32]byte
	copy(data[:], "model-owner-nonce")
	r := e.Report(data)
	if !e.VerifyReport(r) {
		t.Fatal("valid report rejected")
	}
	r.MAC[0] ^= 1
	if e.VerifyReport(r) {
		t.Fatal("forged MAC accepted")
	}
}

func TestAttestationWrongMeasurementRejected(t *testing.T) {
	e1 := New(DefaultCostModel(), []byte("a"))
	e2 := New(DefaultCostModel(), []byte("b"))
	r := e1.Report([32]byte{})
	if e2.VerifyReport(r) {
		t.Fatal("report from a different enclave accepted")
	}
}

func TestPropSealRoundTrip(t *testing.T) {
	e := testEnclave()
	f := func(data []byte) bool {
		blob, err := e.Seal(data)
		if err != nil {
			return false
		}
		got, err := e.Unseal(blob)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropAllocFreeBalance(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := testEnclave()
		var total int64
		for _, s := range sizes {
			if err := e.Alloc(int64(s)); err != nil {
				return false
			}
			total += int64(s)
		}
		if e.EPCUsed() != total {
			return false
		}
		e.Free(total)
		return e.EPCUsed() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
