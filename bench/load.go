package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"

	"gnnvault/internal/enclave"
)

// loadClients is the closed loop's width: each client is one goroutine
// with one keep-alive connection that sends its next request only after
// reading the previous reply — an edge device's callers wait for their
// answer. Two keep two requests in flight, so workers contend for
// workspaces and EPC; the process itself runs on one core (see ref.go).
const loadClients = 2

// client is one HTTP/1.1 keep-alive connection to a stack.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string) *client {
	return &client{url: url, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is what came back for one request.
type reply struct {
	Labels  []int
	Bytes   int
	Latency time.Duration // send → body fully read
}

// do sends r and reads the whole response. A transport error or a
// non-200 status is an error; the latency clock stops before the JSON is
// decoded.
func (c *client) do(r *request) (reply, error) {
	body := r.body()
	start := time.Now()
	resp, err := c.http.Post(c.url+r.Path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: status %d: %s", r.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out struct {
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return reply{}, fmt.Errorf("%s: decoding reply: %w", r.Path, err)
	}
	return reply{Labels: out.Labels, Bytes: len(raw), Latency: latency}, nil
}

// agreement counts how many of got equal the reference labels of the
// nodes asked for (all nodes when the request named none).
func agreement(ref []int, nodes, got []int) (equal, total int, err error) {
	if len(nodes) == 0 {
		if len(got) != len(ref) {
			return 0, 0, fmt.Errorf("got %d labels, want %d", len(got), len(ref))
		}
		for i, l := range got {
			if l == ref[i] {
				equal++
			}
		}
		return equal, len(got), nil
	}
	if len(got) != len(nodes) {
		return 0, 0, fmt.Errorf("got %d labels for %d nodes", len(got), len(nodes))
	}
	for i, n := range nodes {
		if got[i] == ref[n] {
			equal++
		}
	}
	return equal, len(nodes), nil
}

// phaseCounts is the sent/succeeded/failed tally every phase reports.
type phaseCounts struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// roundLen is how long the clients keep issuing before the loop pauses to
// time the host-speed reference. Every client sends at least one request
// a round, so a full-graph round is one request each.
const roundLen = 100 * time.Millisecond

// round is one stretch of load between two host-speed samples.
type round struct {
	StartS float64 // first send, seconds since the phase began
	WallS  float64 // first send → last reply; the reference runs outside it
	// Host is the host-speed factor the round ran at: the mean of the
	// reference samples taken just before and just after it.
	Host      float64
	Done      int     // 200-responses
	CPUMs     float64 // user+sys of this process over the round
	ComputeNs int64   // ledger ComputeNs (measured host time × slowdown) charged in the round
}

// scale is what a host-clock figure of this round is divided by: the
// host-speed factor, or 1 for the figure as measured.
func (r *round) scale(normalised bool) float64 {
	if normalised {
		return r.Host
	}
	return 1
}

// loadResult is what one closed-loop phase observed from outside.
type loadResult struct {
	Counts  phaseCounts
	Seconds float64 // nominal window length
	Rounds  []round
	// LatMs holds one client-observed latency per succeeded request, as
	// measured; LatRound is the round each was answered in.
	LatMs       []float64
	LatRound    []int
	LabelsEqual int
	LabelsTotal int
	RespBytes   []float64
	Ledger      enclave.Ledger
	PeakEPC     int64
	// Plans and Evictions are registry counter deltas (0 on the fleet);
	// PoolErrors and AvgBatch come from the worker pool's own Stats.
	Plans, Evictions uint64
	PoolErrors       uint64
	AvgBatch         float64
	FirstErr         error
}

// latencies returns the sorted latencies: as measured, or each divided by
// its round's host-speed factor.
func (l *loadResult) latencies(normalised bool) []float64 {
	out := make([]float64, len(l.LatMs))
	for i, ms := range l.LatMs {
		out[i] = ms / l.Rounds[l.LatRound[i]].scale(normalised)
	}
	sort.Float64s(out)
	return out
}

// cpuMs and computeNs sum the per-round host-clock costs.
func (l *loadResult) cpuMs(normalised bool) (sum float64) {
	for i := range l.Rounds {
		sum += l.Rounds[i].CPUMs / l.Rounds[i].scale(normalised)
	}
	return sum
}

func (l *loadResult) computeNs(normalised bool) (sum float64) {
	for i := range l.Rounds {
		sum += float64(l.Rounds[i].ComputeNs) / l.Rounds[i].scale(normalised)
	}
	return sum
}

// hostFactor is the median host-speed factor of the phase's rounds.
func (l *loadResult) hostFactor() float64 {
	fs := make([]float64, len(l.Rounds))
	for i := range l.Rounds {
		fs[i] = l.Rounds[i].Host
	}
	return median(fs)
}

// cpuTime returns this process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ledgerDelta subtracts the additive ledger fields; PeakEPCBytes keeps
// the later snapshot's value.
func ledgerDelta(after, before enclave.Ledger) enclave.Ledger {
	after.ECalls -= before.ECalls
	after.OCalls -= before.OCalls
	after.BytesIn -= before.BytesIn
	after.BytesOut -= before.BytesOut
	after.PageSwaps -= before.PageSwaps
	after.TransitionNs -= before.TransitionNs
	after.TransferNs -= before.TransferNs
	after.PagingNs -= before.PagingNs
	after.ComputeNs -= before.ComputeNs
	after.AllocFailures -= before.AllocFailures
	return after
}

// loadClient is one closed-loop client's state across the rounds of a
// phase: its connection, its seeded stream and its tallies.
type loadClient struct {
	http         *client
	stream       *stream
	sent, failed int
	equal, total int
	peak         int64
	firstErr     error
	latMs, bytes []float64
	latRound     []int
}

// runLoad drives st with loadClients closed-loop clients for d, in rounds
// of roundLen. Within a round every client draws from its own seeded
// stream, sends its next request as soon as the previous reply is read and
// checks each reply's labels against the reference; at the round's end the
// clients meet, and with the stack quiet on both sides the loop reads the
// CPU clock and the ledgers and times the host-speed reference before the
// next round starts. The reference's own time is in no figure. Issuing
// stops at the deadline; the round then in flight completes and counts.
func runLoad(st *stack, w *workload, fx *fixture, ref *hostRef, seed int64, d time.Duration) loadResult {
	res := loadResult{Seconds: d.Seconds()}
	clients := make([]*loadClient, loadClients)
	for c := range clients {
		clients[c] = &loadClient{http: newClient(st.URL), stream: newStream(w, fx, seed, c)}
		defer clients[c].http.close()
	}
	ledger0 := st.ledger()
	pool0 := st.poolStats()
	var plans0, evictions0 uint64
	if st.reg != nil {
		rs := st.reg.Stats()
		plans0, evictions0 = rs.Plans, rs.Evictions
	}

	compute := ledger0.ComputeNs
	host := ref.sample()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		idx := len(res.Rounds)
		cpu0 := cpuTime()
		t0 := time.Now()
		stop := t0.Add(roundLen)
		if stop.After(deadline) {
			stop = deadline
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *loadClient) {
				defer wg.Done()
				c.round(st, fx, idx, stop)
			}(c)
		}
		wg.Wait()
		r := round{StartS: t0.Sub(start).Seconds(), WallS: time.Since(t0).Seconds()}
		r.CPUMs = float64((cpuTime() - cpu0).Nanoseconds()) / 1e6
		now := st.ledger().ComputeNs
		r.ComputeNs, compute = now-compute, now
		after := ref.sample()
		r.Host, host = (host+after)/2, after
		res.Rounds = append(res.Rounds, r)
	}

	res.Ledger = ledgerDelta(st.ledger(), ledger0)
	for _, c := range clients {
		for _, i := range c.latRound {
			res.Rounds[i].Done++
		}
		res.LatMs = append(res.LatMs, c.latMs...)
		res.LatRound = append(res.LatRound, c.latRound...)
		res.RespBytes = append(res.RespBytes, c.bytes...)
		res.Counts.Sent += c.sent
		res.Counts.Failed += c.failed
		res.LabelsEqual += c.equal
		res.LabelsTotal += c.total
		res.PeakEPC = max(res.PeakEPC, c.peak)
		if res.FirstErr == nil {
			res.FirstErr = c.firstErr
		}
	}
	res.Counts.Succeeded = len(res.LatMs)
	res.PeakEPC = max(res.PeakEPC, res.Ledger.PeakEPCBytes)
	pool := st.poolStats()
	res.PoolErrors = pool.Errors - pool0.Errors
	if b := pool.Batches - pool0.Batches; b > 0 {
		res.AvgBatch = float64(pool.Completed+pool.Errors-pool0.Completed-pool0.Errors) / float64(b)
	}
	if st.reg != nil {
		rs := st.reg.Stats()
		res.Plans, res.Evictions = rs.Plans-plans0, rs.Evictions-evictions0
	}
	return res
}

// round issues requests back to back until stop, and at least one.
func (c *loadClient) round(st *stack, fx *fixture, idx int, stop time.Time) {
	note := func(err error) {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	for first := true; first || time.Now().Before(stop); first = false {
		r := c.stream.Next()
		c.sent++
		rep, err := c.http.do(&r)
		if err != nil {
			note(err)
			continue
		}
		eq, tot, err := agreement(fx.model(r.Vault).Ref, r.Nodes, rep.Labels)
		if err != nil {
			note(fmt.Errorf("%s %s: %w", r.Path, r.Vault, err))
			continue
		}
		c.equal += eq
		c.total += tot
		c.peak = max(c.peak, st.epcInUse())
		c.latMs = append(c.latMs, float64(rep.Latency.Nanoseconds())/1e6)
		c.latRound = append(c.latRound, idx)
		c.bytes = append(c.bytes, float64(rep.Bytes))
	}
}
