package serve

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"gnnvault/internal/enclave"
)

// TestDefendedRowPreservesArgmax sweeps rounding digits × top-k over
// logit rows including near-ties: whatever the defense does to the
// posterior, the argmax — and therefore the served label — must not move.
func TestDefendedRowPreservesArgmax(t *testing.T) {
	rows := [][]float64{
		{2.0, 1.0, 0.5, -1.0},
		{0.0, 0.0, 0.0, 0.0},                  // exact four-way tie
		{1.0, 1.0 - 1e-12, 1.0 - 1e-9, 0.0},   // near-tie at the top
		{-5.0, -5.0 + 1e-13, -4.999, -5.0001}, // near-tie among negatives
		{10.0, -10.0, 0.0, 9.9999},
		{0.30103, 0.30102, 0.30101, 0.301},
	}
	for _, digits := range []int{0, 1, 2, 3, 6, 17, 18, 308, 309, 400} {
		for _, topk := range []int{0, 1, 2, 3, 4} {
			cfg := Config{RoundDigits: digits, TopK: topk}
			for ri, logits := range rows {
				want := argmaxRow(logits)
				got := cfg.defendedRow(logits)
				if len(got) != len(logits) {
					t.Fatalf("row %d: defended width %d", ri, len(got))
				}
				if g := argmaxRow(got); g != want {
					t.Fatalf("digits=%d topk=%d row %d: argmax moved %d → %d (%v)",
						digits, topk, ri, want, g, got)
				}
				zeros := 0
				for _, v := range got {
					if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
						t.Fatalf("digits=%d topk=%d row %d: value %v outside [0,1]", digits, topk, ri, v)
					}
					if v == 0 {
						zeros++
					}
				}
				if topk > 0 && topk < len(logits) && zeros < len(logits)-topk {
					t.Fatalf("digits=%d topk=%d row %d: only %d entries zeroed (%v)",
						digits, topk, ri, zeros, got)
				}
			}
		}
	}
}

// TestDefendedRowRoundingCoarsens checks the defense does something: at 1
// digit every entry must sit on the 0.1 grid.
func TestDefendedRowRoundingCoarsens(t *testing.T) {
	got := Config{RoundDigits: 1}.defendedRow([]float64{1.3, 0.2, -0.7})
	for i, v := range got {
		scaled := v * 10
		if math.Abs(scaled-math.Round(scaled)) > 1e-9 {
			t.Fatalf("entry %d = %v not on the 0.1 grid (%v)", i, v, got)
		}
	}
}

// TestRateLimiterTypedError pins the contract the registry relies on:
// throttling is never confusable with EPC exhaustion.
func TestRateLimiterTypedError(t *testing.T) {
	lim := newLimiter(RateLimit{Budget: 10})
	if err := lim.allow("a", 10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := lim.allow("a", 1)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over budget: %v, want ErrRateLimited", err)
	}
	if errors.Is(err, enclave.ErrEPCExhausted) {
		t.Fatal("ErrRateLimited must not match enclave.ErrEPCExhausted")
	}
	if errors.Is(enclave.ErrEPCExhausted, ErrRateLimited) {
		t.Fatal("enclave.ErrEPCExhausted must not match ErrRateLimited")
	}
	// Budgets are per client: a fresh identity is unaffected.
	if err := lim.allow("b", 10); err != nil {
		t.Fatalf("fresh client: %v", err)
	}
	// A rejected request charges nothing: client b still holds 0 spent + 10 cap.
	if err := lim.allow("b", 11); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over budget: %v", err)
	}
}

// TestRateLimiterRefill drives the token bucket on a fake clock.
func TestRateLimiterRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	lim := newLimiter(RateLimit{PerSec: 10, Burst: 20})
	lim.now = func() time.Time { return now }

	if err := lim.allow("c", 20); err != nil {
		t.Fatalf("burst: %v", err)
	}
	if err := lim.allow("c", 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("empty bucket: %v, want ErrRateLimited", err)
	}
	now = now.Add(500 * time.Millisecond) // +5 tokens
	if err := lim.allow("c", 5); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := lim.allow("c", 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("bucket drained again: %v", err)
	}
	now = now.Add(time.Hour) // refill clamps at Burst
	if err := lim.allow("c", 21); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("cost above Burst: %v, want ErrRateLimited", err)
	}
	if err := lim.allow("c", 20); err != nil {
		t.Fatalf("full bucket: %v", err)
	}
}

// TestRateLimiterBoundsClients floods the limiter with ten times
// maxClients distinct identities (the X-Client header is remote-
// controlled) on a fake clock. Under a rate-only limit idle buckets are
// swept and the table stays within the cap; under a lifetime budget spend
// is never forgotten, so the table fills, new identities are refused with
// ErrRateLimited, and an established client's remaining budget is exactly
// what it was before the flood.
func TestRateLimiterBoundsClients(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	rate := newLimiter(RateLimit{PerSec: 10, Burst: 5})
	rate.now = clock
	for i := 0; i < 10*maxClients; i++ {
		now = now.Add(time.Millisecond) // a spent token is back 100 requests later
		if err := rate.allow(fmt.Sprintf("flood-%d", i), 1); err != nil {
			t.Fatalf("rate-only flood: client %d refused: %v", i, err)
		}
		if len(rate.clients) > maxClients {
			t.Fatalf("rate-only flood: tracking %d clients, cap %d", len(rate.clients), maxClients)
		}
	}

	budget := newLimiter(RateLimit{Budget: 40})
	budget.now = clock
	if err := budget.allow("alice", 30); err != nil {
		t.Fatalf("alice within budget: %v", err)
	}
	refused := 0
	for i := 0; i < 10*maxClients; i++ {
		err := budget.allow(fmt.Sprintf("flood-%d", i), 1)
		if err != nil && !errors.Is(err, ErrRateLimited) {
			t.Fatalf("budget flood: client %d: %v, want nil or ErrRateLimited", i, err)
		}
		if err != nil {
			refused++
		}
	}
	if len(budget.clients) > maxClients {
		t.Fatalf("budget flood: tracking %d clients, cap %d", len(budget.clients), maxClients)
	}
	if want := 9*maxClients + 1; refused != want {
		t.Fatalf("budget flood: %d identities refused, want %d (table full of spenders fails closed)", refused, want)
	}
	if err := budget.allow("alice", 11); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("alice past her budget after the flood: %v, want ErrRateLimited (spend forgotten)", err)
	}
	if err := budget.allow("alice", 10); err != nil {
		t.Fatalf("alice's remaining budget after the flood: %v", err)
	}
}

// TestServerScoresSurface runs the defended scores path end to end on a
// one-vault registry: labels equal the label-only path, each score row's
// argmax equals its label, and a label-only server refuses score queries
// with the typed error.
func TestServerScoresSurface(t *testing.T) {
	ds, v := testVault(t)
	s := oneVault(t, v, nil, nil, Config{Workers: 2, ExposeScores: true, RoundDigits: 2, TopK: 3})
	defer s.Close()

	want, err := s.Predict(oneVaultID, ds.X)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	scores, labels, err := s.PredictScores(oneVaultID, ds.X)
	if err != nil {
		t.Fatalf("PredictScores: %v", err)
	}
	if len(scores) != ds.Graph.N() {
		t.Fatalf("scores rows %d, want %d", len(scores), ds.Graph.N())
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, labels[i], want[i])
		}
		if g := argmaxRow(scores[i]); g != want[i] {
			t.Fatalf("argmax(scores[%d]) = %d, label %d", i, g, want[i])
		}
	}

	labelOnly := oneVault(t, v, nil, nil, Config{Workers: 1})
	defer labelOnly.Close()
	if _, _, err := labelOnly.PredictScores(oneVaultID, ds.X); !errors.Is(err, ErrScoresDisabled) {
		t.Fatalf("label-only PredictScores: %v, want ErrScoresDisabled", err)
	}
	if _, _, err := labelOnly.PredictNodesScores(oneVaultID, []int{1}); !errors.Is(err, ErrScoresDisabled) {
		t.Fatalf("label-only PredictNodesScores: %v, want ErrScoresDisabled", err)
	}
}

// TestServerNodeScoresSurface checks the coalesced subgraph scores path,
// including a mixed batch of label and score node queries.
func TestServerNodeScoresSurface(t *testing.T) {
	ds, v := testVault(t)
	s := oneVault(t, v, ds.X, nodeQueryCfg(), Config{Workers: 1, ExposeScores: true})
	defer s.Close()

	seeds := []int{3, 99, 280}
	want := expectedNodeLabels(t, v, ds.X, seeds)
	scores, labels, err := s.PredictNodesScores(oneVaultID, seeds)
	if err != nil {
		t.Fatalf("PredictNodesScores: %v", err)
	}
	for i := range seeds {
		if labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, labels[i], want[i])
		}
		if g := argmaxRow(scores[i]); g != want[i] {
			t.Fatalf("argmax(scores[%d]) = %d, label %d", i, g, want[i])
		}
	}
	// Label-only node queries still work beside score queries.
	plain, err := s.PredictNodes(oneVaultID, seeds)
	if err != nil {
		t.Fatalf("PredictNodes: %v", err)
	}
	for i := range seeds {
		if plain[i] != want[i] {
			t.Fatalf("plain label[%d] = %d, want %d", i, plain[i], want[i])
		}
	}
}
