package serve

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"
)

// ErrScoresDisabled is returned by PredictScores/PredictNodesScores on a
// server started without Config.ExposeScores. Label-only output is the
// paper's strongest defense (Sec. IV-E); exposing per-class scores is an
// explicit opt-in that widens the attack surface, which the defenses
// below then narrow again.
var ErrScoresDisabled = errors.New("serve: score queries not enabled")

// ErrRateLimited is returned by the API layer when a client exceeds its
// configured query rate or lifetime budget. It is deliberately a distinct
// type from enclave.ErrEPCExhausted: a throttled client is a policy
// decision, not a capacity failure, and the registry must never treat it
// as eviction pressure.
var ErrRateLimited = errors.New("serve: client rate limited")

// RateLimit caps what one client may extract from the serving surface.
// Cost is measured in answered labels (a full-graph query costs the graph
// size, a node query costs its seed count), so the limit prices exactly
// the quantity an extraction attack consumes.
type RateLimit struct {
	// PerSec is the sustained answered-labels-per-second refill rate of
	// each client's token bucket. <= 0 disables the rate component.
	PerSec float64
	// Burst is the bucket capacity in labels. Defaults to
	// max(1, PerSec) when unset. A query costing more than Burst can
	// never be admitted by the rate component.
	Burst int
	// Budget is a lifetime per-client cap on total answered labels.
	// <= 0 disables the budget component. Unlike the token bucket it is
	// clock-independent, so budget-limited configurations are
	// deterministic under replay.
	Budget int
}

// bucket is one client's token-bucket state.
type bucket struct {
	tokens float64
	last   time.Time
	spent  int
}

// limiter is a per-client cost-based token bucket plus lifetime budget.
type limiter struct {
	cfg RateLimit
	now func() time.Time // injectable for deterministic tests

	mu      sync.Mutex
	clients map[string]*bucket
	swept   time.Time // last sweep of a full table
}

func newLimiter(cfg RateLimit) *limiter {
	if cfg.Burst <= 0 {
		cfg.Burst = int(cfg.PerSec)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &limiter{cfg: cfg, now: time.Now, clients: make(map[string]*bucket)}
}

// maxClients caps how many client identities the limiter tracks. Identity
// is a request header, so without a cap a client cycling X-Client values
// would grow the map without bound. A full table is swept for idle
// buckets at most once per sweepEvery, so a flood of new identities costs
// each of them a map lookup, not a scan under the lock.
const (
	maxClients = 4096
	sweepEvery = time.Second
)

// allow charges cost answered labels to client, returning ErrRateLimited
// if either the token bucket or the lifetime budget cannot cover it. A
// rejected request charges nothing — and a first request that is rejected
// leaves no bucket behind. A new identity arriving at a full table first
// sweeps out every idle bucket, and is refused (fail closed) if none was.
func (l *limiter) allow(client string, cost int) error {
	if cost <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, known := l.clients[client]
	if !known {
		b = &bucket{tokens: float64(l.cfg.Burst), last: now}
	}
	if l.cfg.Budget > 0 && b.spent+cost > l.cfg.Budget {
		return ErrRateLimited
	}
	if l.cfg.PerSec > 0 {
		b.tokens = l.refilled(b, now)
		b.last = now
		if b.tokens < float64(cost) {
			return ErrRateLimited
		}
		b.tokens -= float64(cost)
	}
	if !known {
		if len(l.clients) >= maxClients && (now.Sub(l.swept) < sweepEvery || !l.sweep(now)) {
			return ErrRateLimited
		}
		l.clients[client] = b
	}
	b.spent += cost
	return nil
}

// refilled returns b's token level at now.
func (l *limiter) refilled(b *bucket, now time.Time) float64 {
	return math.Min(float64(l.cfg.Burst), b.tokens+now.Sub(b.last).Seconds()*l.cfg.PerSec)
}

// sweep drops every bucket indistinguishable from a fresh one — tokens
// refilled to Burst and, when a lifetime budget is configured, nothing
// spent against it, so spend is never forgotten — and reports whether that
// made room.
func (l *limiter) sweep(now time.Time) bool {
	l.swept = now
	for id, b := range l.clients {
		if (l.cfg.Budget <= 0 || b.spent == 0) && (l.cfg.PerSec <= 0 || l.refilled(b, now) >= float64(l.cfg.Burst)) {
			delete(l.clients, id)
		}
	}
	return len(l.clients) < maxClients
}

// defendedRow turns one row of rectifier logits into the posterior row a
// client is allowed to see: softmax, then the configured output defenses.
// The returned slice is freshly allocated and owned by the caller; labels
// are always computed from the raw logits before any defense, so the
// defenses never change which label a query reports.
func (c Config) defendedRow(logits []float64) []float64 {
	row := make([]float64, len(logits))
	softmaxRow(row, logits)
	if c.TopK > 0 && c.TopK < len(row) {
		topKRow(row, c.TopK)
	}
	if c.RoundDigits > 0 {
		roundRow(row, c.RoundDigits)
	}
	return row
}

// softmaxRow writes softmax(logits) into dst (max-subtracted for
// stability).
func softmaxRow(dst, logits []float64) {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// topKRow zeroes every entry of row outside its k largest. Ties at the
// boundary keep the lower index (stable sort), so the argmax entry — the
// first maximum — always survives.
func topKRow(row []float64, k int) {
	idx := make([]int, len(row))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
	for _, i := range idx[k:] {
		row[i] = 0
	}
}

// roundRow coarsens row to digits decimal digits without ever moving the
// argmax: the top entry rounds up to the grid, every other entry rounds
// down, so floor(other) <= other < top <= ceil(top) keeps the original
// winner on top (ties resolve to the first maximum, matching how labels
// are computed from the raw logits).
func roundRow(row []float64, digits int) {
	unit := math.Pow(10, -float64(digits))
	top := argmaxRow(row)
	for i, v := range row {
		if i == top {
			row[i] = math.Ceil(v/unit) * unit
		} else {
			row[i] = math.Floor(v/unit) * unit
		}
	}
}

// argmaxRow returns the index of the first maximum of row.
func argmaxRow(row []float64) int {
	top := 0
	for i, v := range row {
		if v > row[top] {
			top = i
		}
	}
	return top
}
